"""Tests for architecture parameters, layout and RR graph."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import RRNodeType, _keyed_picks, build_rr_graph


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
    for kind, x, y, capacity, span in zip(
        g.node_type.tolist(), g.x.tolist(), g.y.tolist(),
        g.capacity.tolist(), g.span.tolist(),
    ):
        fields = (RRNodeType(kind).name, x, y, capacity, *span)
        h.update(("n %s %d %d %d %d %d %d %d\n" % fields).encode())
    for u in range(g.n_nodes):
        for dst, resource in g.edges_of(u):
            h.update(f"e {u} {dst} {resource}\n".encode())
    return h.hexdigest()


_ARRAY_DTYPES = {
    "node_type": np.dtype(np.int8), "x": np.dtype(np.int32),
    "y": np.dtype(np.int32), "capacity": np.dtype(np.int32),
    "span": np.dtype(np.int32), "edge_offsets": np.dtype(np.int32),
    "edge_dst": np.dtype(np.int32), "edge_resource": np.dtype(np.int8),
}
"""Every array field of :class:`RRGraph` and the dtype it is stored in."""


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

    The last six cases were recorded from the list-filling builder that
    came before the array one, the same way: 2 and 3 tracks (fewer
    cross-channel candidates than the switch-block fanout, and wire
    ends with no straight candidate), 7x5 and 22x17 (widths that are
    not a multiple of the segment length; 22x17 at 90 tracks, the flow's
    second retry width) and 9x9, the ``raygentop``/``diffeq1`` layout,
    at 40 and 90 tracks.
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
        (5, 5, 2, 130, 368,
         "c9f5a23cf7925c635d564d7a5f64c6ee072ea577ea5d2fa1e8d0028ab1a771a1"),
        (6, 6, 3, 204, 804,
         "904c00b3c0454b572337fa175e478ec12c7b5ed304b1d6568ad70f998848107a"),
        (7, 5, 40, 840, 9098,
         "6db523f8760eca2ceb9cec5f6142af4811143ec092c5e299b73b364624029627"),
        (9, 9, 40, 1944, 22520,
         "12bbcddfa4328e850dc958298f3e55cffa9d88844baaa3c32bf87b0fe766d8e8"),
        (9, 9, 90, 3978, 43614,
         "40636b28152bbd7054dbf5b47ed45c89daef36f97597749ccf1e053ab0f75e47"),
        (22, 17, 90, 18354, 205384,
         "2b1c0f1e064cf951a0e9a9125f9499efa2ce696441abbe425d305a7a36588c15"),
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
        dtypes = {name: getattr(g, name).dtype for name in _ARRAY_DTYPES}
        assert dtypes == _ARRAY_DTYPES
        assert g.span.shape == (n_nodes, 4)
        assert g.edge_offsets.shape == (n_nodes + 1,)
        # Each pin dict lists its tiles in node-id order.
        for kind, pins in ((RRNodeType.SOURCE, g.source_of),
                           (RRNodeType.OPIN, g.opin_of),
                           (RRNodeType.IPIN, g.ipin_of),
                           (RRNodeType.SINK, g.sink_of)):
            ids = np.flatnonzero(g.node_type == kind).tolist()
            assert list(pins.items()) == [
                ((int(g.x[v]), int(g.y[v])), v) for v in ids
            ]


class TestKeyedPicks:
    """The one subset rule every RR-graph pick follows, written out."""

    @staticmethod
    def _literal(n, salt, count):
        if count >= n:
            return list(range(n))
        return sorted(
            range(n),
            key=lambda i: ((i + salt) * 2654435761 + salt * 97) & 0xFFFFFFFF,
        )[:count]

    def test_matches_the_literal_rule(self):
        rng = np.random.default_rng(0)
        n = rng.integers(0, 200, size=400)
        salt = rng.integers(0, 2_000_000, size=400)
        count = rng.integers(0, 12, size=400)
        count[:40] = n[:40]  # count == n keeps every candidate
        salt[:8] = [0, 1, 2**31, 2**32 - 1, 2**32, 123457, 10**7, 3]
        rows, index = _keyed_picks(n, salt, count)
        expected = [
            (r, i)
            for r in range(n.size)
            for i in self._literal(int(n[r]), int(salt[r]), int(count[r]))
        ]
        assert list(zip(rows.tolist(), index.tolist())) == expected
        assert rows.dtype == index.dtype == np.int64


class TestRRGraphMemory:
    """One build's traced peak stays below the list-filling builder's.

    That builder (a Python list per node and edge field, filled wire by
    wire) peaked at 1.38 MB on 9x9 at 40 tracks and 14.25 MB on 22x17 at
    90 tracks under ``tracemalloc`` (after one warm-up build).  The array
    builder works per wire end and per pick, never on a matrix padded to
    the longest candidate row, and peaks at about three quarters of that
    (1.05 and 10.1 MB).
    """

    @pytest.mark.parametrize("width, height, tracks, parent_peak", [
        (9, 9, 40, 1_380_000),
        (22, 17, 90, 14_250_000),
    ])
    def test_peak_at_most_the_list_builders(
        self, width, height, tracks, parent_peak
    ):
        arch = ArchParams().with_changes(routed_channel_tracks=tracks)
        layout = FabricLayout(arch, width, height)
        build_rr_graph(arch, layout)
        tracemalloc.start()
        try:
            build_rr_graph(arch, layout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak
