"""Tests for architecture parameters, layout and RR graph."""

import hashlib

import numpy as np
import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import RRNodeType, build_rr_graph


class TestArchParams:
    def test_defaults_match_table1(self):
        arch = ArchParams()
        assert arch.lut_size == 6
        assert arch.cluster_size == 10
        assert arch.channel_tracks == 320
        assert arch.wire_segment_length == 4
        assert arch.cluster_inputs == 40
        assert arch.sb_mux_size == 12
        assert arch.cb_mux_size == 64
        assert arch.local_mux_size == 25
        assert arch.vdd == pytest.approx(0.8)
        assert arch.vdd_low_power == pytest.approx(0.95)
        assert arch.bram_rows * arch.bram_width_bits == 1024 * 32

    def test_table1_rows_complete(self):
        rows = dict(ArchParams().table1_rows())
        assert rows["K"] == "6"
        assert rows["Channel tracks"] == "320"
        assert "BRAM" in rows

    def test_frozen_and_hashable(self):
        a, b = ArchParams(), ArchParams()
        assert a == b and hash(a) == hash(b)

    def test_with_changes(self):
        arch = ArchParams().with_changes(lut_size=4)
        assert arch.lut_size == 4
        assert ArchParams().lut_size == 6

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lut_size", 1),
            ("cluster_size", 0),
            ("channel_tracks", 1),
            ("wire_segment_length", 0),
            ("fc_in", 0.0),
            ("fc_out", 1.5),
            ("sb_mux_size", 1),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            ArchParams().with_changes(**{field: value})


class TestFabricLayout:
    @pytest.fixture(scope="class")
    def layout(self):
        return FabricLayout(ArchParams(), 12, 12)

    def test_perimeter_is_io(self, layout):
        for x in range(layout.width):
            assert layout.tile(x, 0).type == TileType.IO
            assert layout.tile(x, layout.height - 1).type == TileType.IO

    def test_has_hard_columns(self, layout):
        assert layout.locations_of(TileType.BRAM)
        assert layout.locations_of(TileType.DSP)

    def test_bram_and_dsp_columns_disjoint(self, layout):
        bram_cols = {x for x, _ in layout.locations_of(TileType.BRAM)}
        dsp_cols = {x for x, _ in layout.locations_of(TileType.DSP)}
        assert not bram_cols & dsp_cols

    def test_tile_index_round_trip(self, layout):
        for (x, y) in [(0, 0), (5, 7), (11, 11)]:
            index = layout.tile_index(x, y)
            tile = list(layout.tiles())[index]
            assert (tile.x, tile.y) == (x, y)

    def test_out_of_range_rejected(self, layout):
        with pytest.raises(IndexError):
            layout.tile(12, 0)
        with pytest.raises(IndexError):
            layout.tile_index(-1, 3)

    def test_neighbors_interior_and_corner(self, layout):
        assert len(layout.neighbors(5, 5)) == 4
        assert len(layout.neighbors(0, 0)) == 2

    def test_capacity_counts(self, layout):
        assert layout.capacity_of(TileType.CLB) == len(
            layout.locations_of(TileType.CLB)
        )
        assert layout.capacity_of(TileType.IO) == 8 * len(
            layout.locations_of(TileType.IO)
        )

    def test_for_netlist_fits(self):
        arch = ArchParams()
        layout = FabricLayout.for_netlist(arch, n_clb=30, n_bram=4, n_dsp=2, n_io=40)
        assert layout.capacity_of(TileType.CLB) >= 30
        assert layout.capacity_of(TileType.BRAM) >= 4
        assert layout.capacity_of(TileType.DSP) >= 2
        assert layout.capacity_of(TileType.IO) >= 40

    def test_for_netlist_rejects_monster(self):
        with pytest.raises(ValueError, match="does not fit"):
            FabricLayout.for_netlist(
                ArchParams(), n_clb=10**6, n_bram=0, n_dsp=0, n_io=0, max_dim=16
            )

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            FabricLayout(ArchParams(), 3, 3)


class TestRRGraph:
    @pytest.fixture(scope="class")
    def graph(self):
        arch = ArchParams().with_changes(routed_channel_tracks=16)
        layout = FabricLayout(arch, 8, 8)
        return build_rr_graph(arch, layout), layout

    def test_every_active_tile_has_pins(self, graph):
        g, layout = graph
        for tile in layout.tiles():
            if tile.type == TileType.EMPTY:
                continue
            key = (tile.x, tile.y)
            assert key in g.source_of
            assert key in g.sink_of

    def test_source_reaches_wires(self, graph):
        g, layout = graph
        source = g.source_of[(4, 4)]
        opin_edges = g.edges_of(source)
        assert len(opin_edges) == 1
        opin, resource = opin_edges[0]
        assert resource == "output_mux"
        wire_edges = g.edges_of(opin)
        assert wire_edges
        assert all(resource == "sb_mux" for _dst, resource in wire_edges)
        assert all(
            g.node_type[dst] in (RRNodeType.CHANX, RRNodeType.CHANY)
            for dst, _resource in wire_edges
        )

    def test_wires_have_switchblock_fanout(self, graph):
        g, _ = graph
        wires = np.flatnonzero(g.node_type == RRNodeType.CHANX)
        assert wires.size
        sample = int(wires[wires.size // 2])
        targets = [dst for dst, res in g.edges_of(sample) if res == "sb_mux"]
        assert targets

    def test_ipin_to_sink_is_local_mux(self, graph):
        g, _ = graph
        ipin = g.ipin_of[(3, 3)]
        edges = g.edges_of(ipin)
        assert len(edges) == 1
        dst, resource = edges[0]
        assert resource == "local_mux"
        assert g.node_type[dst] == RRNodeType.SINK

    def test_wire_capacity_is_one(self, graph):
        g, _ = graph
        is_wire = np.isin(g.node_type, (RRNodeType.CHANX, RRNodeType.CHANY))
        assert is_wire.any()
        assert (g.capacity[is_wire] == 1).all()

    def test_wire_span_length(self, graph):
        g, layout = graph
        x0, _, x1, _ = g.span[g.node_type == RRNodeType.CHANX].T
        assert x0.size
        assert ((0 <= x1 - x0) & (x1 - x0 <= 3)).all()  # length-4 segments


def _rr_graph_digest(g) -> str:
    """SHA-256 of every node's kind, tile, capacity and span, then every
    edge's ``(src, dst, resource name)``, both in id order."""
    h = hashlib.sha256()
    for v in range(g.n_nodes):
        fields = (RRNodeType(g.node_type[v]).name, g.x[v], g.y[v],
                  g.capacity[v], *g.span[v])
        h.update(("n %s %d %d %d %d %d %d %d\n" % fields).encode())
    for u in range(g.n_nodes):
        for dst, resource in g.edges_of(u):
            h.update(f"e {u} {dst} {resource}\n".encode())
    return h.hexdigest()


class TestRRGraphGolden:
    """Pins node ids and edge order, which every route depends on.

    Recorded from the object graph that came before the flat arrays
    (one ``RRNode`` per node, one ``RREdge`` list per node) with the same
    text per node (``n <KIND> x y capacity x0 y0 x1 y1``) and per edge
    (``e src dst resource``), taking nodes from ``graph.nodes`` and each
    node's edges from ``graph.out_edges[u]`` in list order.  Re-record
    only for a change meant to renumber the graph, by printing
    ``_rr_graph_digest`` for each case below; ``tests/data/golden_routing.json``
    then moves too.  The 1.5x width is the flow's first retry width.
    """

    @pytest.mark.parametrize("width, height, tracks, n_nodes, n_edges, digest", [
        (8, 8, 40, 1536, 17324,
         "6cb4751756f771d1c95b52e27bdf0792ce97d4f2b7bd9fc80d9d998281fd4d79"),
        (8, 8, 60, 2176, 24106,
         "e7019935c797234986e0a66f02bcf363a13b37497878cf6db63105275b60df86"),
        (13, 10, 40, 3120, 36932,
         "2bbcb6414e6bf8049ba0322f8d5888d739a4f70e9428218beb1423f65b258bb9"),
        (13, 10, 60, 4420, 50825,
         "058e72d34ff4a536369057b971d1ee46837eeeab760d2221c87a28a114c0e6f6"),
    ])
    def test_graph_matches_golden(
        self, width, height, tracks, n_nodes, n_edges, digest
    ):
        arch = ArchParams()
        assert int(arch.routed_channel_tracks * 1.5) == 60
        arch = arch.with_changes(routed_channel_tracks=tracks)
        g = build_rr_graph(arch, FabricLayout(arch, width, height))
        assert (g.n_nodes, g.edge_dst.size) == (n_nodes, n_edges)
        assert _rr_graph_digest(g) == digest
