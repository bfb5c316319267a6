"""Tests for PathFinder internals: cost model, net ordering, route trees."""

import pickle

import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.rrgraph import RRNodeType, build_rr_graph
from repro.cad.pack import pack_netlist
from repro.cad.place import place
from repro.cad.route import (
    _FlatGraph,
    _node_cost,
    _routable_nets,
    route,
)


@pytest.fixture(scope="module")
def routed(tiny_netlist, arch):
    packed = pack_netlist(tiny_netlist, arch)
    counts = {t: 0 for t in TileType}
    for c in packed.clusters:
        counts[c.type] += 1
    layout = FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )
    placement = place(packed, layout, seed=21)
    graph = build_rr_graph(arch, layout)
    return packed, placement, graph, route(packed, placement, graph)


class TestCostModel:
    def test_free_node_costs_base(self):
        assert _node_cost(0, [0], [0.0], [1], pres_fac=1.0) == pytest.approx(1.0)

    def test_full_node_penalized(self):
        free = _node_cost(0, [0], [0.0], [1], pres_fac=2.0)
        full = _node_cost(0, [1], [0.0], [1], pres_fac=2.0)
        assert full > free

    def test_history_accumulates_cost(self):
        fresh = _node_cost(0, [0], [0.0], [1], pres_fac=1.0)
        scarred = _node_cost(0, [0], [3.0], [1], pres_fac=1.0)
        assert scarred == pytest.approx(4.0 * fresh)

    def test_pres_fac_scales_overuse(self):
        mild = _node_cost(0, [2], [0.0], [1], pres_fac=0.5)
        harsh = _node_cost(0, [2], [0.0], [1], pres_fac=5.0)
        assert harsh > mild


class TestHeuristicRow:
    """The per-search list ``_route_net`` reads: the A* heuristic on the
    net's bounding box, ``inf`` on every other tile."""

    def test_tile_is_the_flat_tile_index(self, routed):
        _, placement, graph, _ = routed
        flat = _FlatGraph(graph)
        layout = placement.layout
        assert (flat.width, flat.height) == (layout.width, layout.height)
        assert flat.tile == [
            int(y) * layout.width + int(x) for x, y in zip(graph.x, graph.y)
        ]

    @pytest.mark.parametrize("boxed", [True, False])
    def test_row_is_the_formula_in_the_box_and_inf_outside(
        self, routed, boxed
    ):
        *_, graph, _ = routed
        flat = _FlatGraph(graph)
        width, height = flat.width, flat.height
        bbox = ((1, 2, width - 2, height - 1) if boxed
                else (0, 0, width - 1, height - 1))
        x_lo, y_lo, x_hi, y_hi = bbox
        for tx in range(x_lo, x_hi + 1):
            for ty in range(y_lo, y_hi + 1):
                row = flat.heuristic_row(bbox, tx, ty)
                assert row == [
                    (abs(x - tx) + abs(y - ty)) / 4.0
                    if x_lo <= x <= x_hi and y_lo <= y <= y_hi
                    else float("inf")
                    for y in range(height) for x in range(width)
                ]


class TestNetOrdering:
    def test_high_fanout_first(self, routed):
        packed, placement, graph, _ = routed
        nets = _routable_nets(packed, placement, graph)
        fanouts = [len(sinks) for _net, _src, sinks, _bb in nets]
        assert fanouts == sorted(fanouts, reverse=True)

    def test_bounding_boxes_contain_terminals(self, routed):
        packed, placement, graph, _ = routed
        for net_id, source, sinks, (x_lo, y_lo, x_hi, y_hi) in _routable_nets(
            packed, placement, graph
        ):
            for node_id in [source] + sinks:
                assert x_lo <= graph.x[node_id] <= x_hi
                assert y_lo <= graph.y[node_id] <= y_hi


class TestRouteTrees:
    def test_all_nodes_includes_source(self, routed):
        *_, result = routed
        for net_route in result.routes.values():
            assert net_route.source_node in net_route.all_nodes()

    def test_tree_paths_share_prefixes_not_conflict(self, routed):
        packed, placement, graph, result = routed
        # A net's sink paths form a tree: the union of nodes never contains
        # two distinct incoming tree edges for the same node.
        for net_route in result.routes.values():
            parent = {}
            for path in net_route.sink_paths.values():
                for a, b in zip(path, path[1:]):
                    if b in parent:
                        assert parent[b] == a, "node has two tree parents"
                    parent[b] = a

    def test_wire_accounting(self, routed):
        *_, result = routed
        total = result.total_wire_nodes()
        assert total > 0
        # Upper bound: cannot exceed the number of wires used per net summed.
        upper = sum(
            sum(1 for n in r.all_nodes()
                if result.graph.node_type[n] in (RRNodeType.CHANX, RRNodeType.CHANY))
            for r in result.routes.values()
        )
        assert total == upper

    def test_no_overuse_reported(self, routed):
        *_, result = routed
        assert result.overused_nodes == 0

    def test_router_leaves_the_graph_unchanged(self, routed, arch):
        """The router's per-node lists live only for the call: the graph
        (pickled inside every FlowResult) gains no attribute or state."""
        packed, placement, _graph, _ = routed
        graph = build_rr_graph(arch, placement.layout)
        before = pickle.dumps(graph)
        route(packed, placement, graph)
        assert pickle.dumps(graph) == before
