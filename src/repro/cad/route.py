"""PathFinder negotiated-congestion routing.

Classic Ebeling/McMurchie PathFinder on the RR graph of
:mod:`repro.arch.rrgraph`: every net is maze-routed (Dijkstra expansion
seeded from the net's growing route tree) with a node cost of

``cost(n) = (base + history(n)) * present(n)``

where ``present`` penalizes current over-subscription and ``history``
accumulates persistent congestion.  Iterate rip-up-and-reroute with an
escalating present factor until no node is over capacity.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from repro import observe
from repro.arch.rrgraph import RRGraph, RRNodeType
from repro.cad.pack import PackedNetlist
from repro.cad.place import Placement

PRES_FAC_FIRST = 0.6
PRES_FAC_MULT = 1.5
HIST_FAC = 0.4
MAX_ITERATIONS = 40
BBOX_MARGIN = 4
_INF = float("inf")


class RoutingError(RuntimeError):
    """Raised when the router cannot find a legal solution."""


@dataclass
class NetRoute:
    """Routing of one netlist net."""

    net_id: int
    source_node: int
    sink_paths: Dict[int, List[int]]
    """sink tile-key node -> node path from a tree node to that sink."""

    def all_nodes(self) -> Set[int]:
        nodes: Set[int] = {self.source_node}
        for path in self.sink_paths.values():
            nodes.update(path)
        return nodes


@dataclass
class RoutingResult:
    """All net routes plus convergence metadata."""

    graph: RRGraph
    routes: Dict[int, NetRoute]
    iterations: int
    overused_nodes: int

    def total_wire_nodes(self) -> int:
        total = 0
        for route in self.routes.values():
            for node_id in route.all_nodes():
                if self.graph.nodes[node_id].type in (
                    RRNodeType.CHANX,
                    RRNodeType.CHANY,
                ):
                    total += 1
        return total


def route(
    packed: PackedNetlist,
    placement: Placement,
    graph: RRGraph,
    max_iterations: int = MAX_ITERATIONS,
) -> RoutingResult:
    """Route every multi-tile net of the packed design.

    Each PathFinder iteration is one ``route.iteration`` span carrying
    its ``iteration`` number and the ``overused`` node count it ended on.
    """
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    nets = _routable_nets(packed, placement, graph)
    n_nodes = graph.n_nodes
    occupancy = [0] * n_nodes
    history = [0.0] * n_nodes
    capacity = [node.capacity for node in graph.nodes]
    flat = _FlatGraph(graph)
    routes: Dict[int, NetRoute] = {}
    pres_fac = PRES_FAC_FIRST
    overuse_trend: List[int] = []

    for iteration in range(1, max_iterations + 1):
        with observe.span("route.iteration", iteration=iteration) as span:
            for net_id, source, sinks, bbox in nets:
                if net_id in routes:
                    for node_id in routes[net_id].all_nodes():
                        occupancy[node_id] -= 1
                routes[net_id] = _route_net(
                    flat, source, sinks, bbox, occupancy, history, capacity,
                    pres_fac, net_id,
                )
                for node_id in routes[net_id].all_nodes():
                    occupancy[node_id] += 1

            overused = [
                i for i in range(n_nodes) if occupancy[i] > capacity[i]
            ]
            span.set_attrs(overused=len(overused))
        if not overused:
            return RoutingResult(graph, routes, iteration, 0)
        overuse_trend.append(len(overused))
        # Bail early on hopeless congestion so the flow can retry with a
        # wider channel instead of burning all iterations here.
        if iteration >= 12 and min(overuse_trend[-4:]) >= overuse_trend[-8]:
            reason = "stall bail: overuse stopped falling"
            break
        for i in overused:
            history[i] += HIST_FAC * (occupancy[i] - capacity[i])
        pres_fac *= PRES_FAC_MULT
    else:
        reason = "iteration cap"

    raise RoutingError(
        f"routing did not converge: stopped at iteration {iteration} of "
        f"{max_iterations} ({reason}) with {len(overused)} overused nodes; "
        f"increase the channel width (arch.routed_channel_tracks)"
    )


class _FlatGraph:
    """Per-node plain lists of an :class:`RRGraph` for the maze router:
    tile ``x``/``y``, ``terminal`` (a SOURCE or SINK pin node) and the
    successor ids ``succ`` in ``out_edges`` order.

    Built once per :func:`route` call and never stored on the graph:
    ``RRGraph`` is pickled inside every ``FlowResult``, and these lists
    are cheap to derive again.
    """

    __slots__ = ("x", "y", "terminal", "succ")

    def __init__(self, graph: RRGraph) -> None:
        pins = (RRNodeType.SOURCE, RRNodeType.SINK)
        self.x = [node.x for node in graph.nodes]
        self.y = [node.y for node in graph.nodes]
        self.terminal = [node.type in pins for node in graph.nodes]
        self.succ = [[edge.dst for edge in edges] for edges in graph.out_edges]


def _routable_nets(
    packed: PackedNetlist, placement: Placement, graph: RRGraph
) -> List[Tuple[int, int, List[int], Tuple[int, int, int, int]]]:
    """(net id, source node, sink nodes, bbox) for every multi-tile net,
    highest fanout first."""
    out = []
    for net in packed.netlist.nets:
        driver_cluster = packed.cluster_of_block[net.driver]
        src_xy = placement.location[driver_cluster]
        sink_tiles: Set[Tuple[int, int]] = set()
        for sink in net.sinks:
            xy = placement.location[packed.cluster_of_block[sink]]
            if xy != src_xy:
                sink_tiles.add(xy)
        if not sink_tiles:
            continue
        source = graph.source_of[src_xy]
        sinks = [graph.sink_of[xy] for xy in sorted(sink_tiles)]
        xs = [src_xy[0]] + [xy[0] for xy in sink_tiles]
        ys = [src_xy[1]] + [xy[1] for xy in sink_tiles]
        bbox = (
            max(0, min(xs) - BBOX_MARGIN),
            max(0, min(ys) - BBOX_MARGIN),
            min(placement.layout.width - 1, max(xs) + BBOX_MARGIN),
            min(placement.layout.height - 1, max(ys) + BBOX_MARGIN),
        )
        out.append((net.id, source, sinks, bbox))
    out.sort(key=lambda item: (-len(item[2]), item[0]))
    return out


def _node_cost(
    node_id: int,
    occupancy: Sequence[int],
    history: Sequence[float],
    capacity: Sequence[int],
    pres_fac: float,
) -> float:
    over = occupancy[node_id] + 1 - capacity[node_id]
    present = 1.0 + max(0, over) * pres_fac
    return (1.0 + history[node_id]) * present


def _route_net(
    flat: _FlatGraph,
    source: int,
    sinks: List[int],
    bbox: Tuple[int, int, int, int],
    occupancy: Sequence[int],
    history: Sequence[float],
    capacity: Sequence[int],
    pres_fac: float,
    net_id: int,
) -> NetRoute:
    """Route one net: A* expansion from the growing route tree to each sink.

    The heuristic is the Manhattan tile distance divided by the maximum
    wire span — a lower bound on the number of RR nodes still to traverse
    (each costs at least the base cost of 1), so the expansion stays
    optimal while exploring far fewer nodes than plain Dijkstra.

    The node cost is :func:`_node_cost`, inlined as the same float
    expression.  Heap entries are ``(f, node, h)``: ``h`` depends only on
    the node, so ties still break on ``(f, node)``.
    """
    x_lo, y_lo, x_hi, y_hi = bbox
    tree_nodes: Set[int] = {source}
    sink_paths: Dict[int, List[int]] = {}
    xs, ys, terminal, succ = flat.x, flat.y, flat.terminal, flat.succ
    heappush, heappop = heapq.heappush, heapq.heappop
    max_span = 4.0

    for target in sinks:
        tx, ty = xs[target], ys[target]
        dist: Dict[int, float] = {n: 0.0 for n in tree_nodes}
        prev: Dict[int, int] = {}
        heap: List[Tuple[float, int, float]] = []
        for n in tree_nodes:
            h = (abs(xs[n] - tx) + abs(ys[n] - ty)) / max_span
            heap.append((h, n, h))
        heapq.heapify(heap)
        found = False
        while heap:
            f, u, h = heappop(heap)
            d = dist[u]
            if f > d + h + 1e-12:
                continue
            if u == target:
                found = True
                break
            for v in succ[u]:
                x = xs[v]
                y = ys[v]
                # Respect the bounding box (sinks are inside by construction)
                if not (x_lo <= x <= x_hi and y_lo <= y <= y_hi):
                    continue
                # Never route through another tile's SOURCE/SINK pins.
                if terminal[v] and v != target:
                    continue
                over = occupancy[v] + 1 - capacity[v]
                present = 1.0 + (over if over > 0 else 0) * pres_fac
                nd = d + (1.0 + history[v]) * present
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    prev[v] = u
                    hv = (abs(x - tx) + abs(y - ty)) / max_span
                    heappush(heap, (nd + hv, v, hv))
        if not found:
            raise RoutingError(
                f"net {net_id}: no path from route tree to sink node {target}"
            )
        path = [target]
        while path[-1] not in tree_nodes:
            path.append(prev[path[-1]])
        path.reverse()
        tree_nodes.update(path)
        sink_paths[target] = path

    return NetRoute(net_id, source, sink_paths)
