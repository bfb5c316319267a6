"""Routing-resource graph for the PathFinder router.

A VPR-style RR graph over a :class:`~repro.arch.layout.FabricLayout`:

- per-tile ``SOURCE -> OPIN`` and ``IPIN -> SINK`` pin nodes (aggregated per
  pin class, with the pin-class capacity),
- length-``L`` horizontal (CHANX) and vertical (CHANY) wire segments with
  staggered starting points,
- switch-block edges between wire segments (Wilton-like, driven by SB
  muxes), connection-block edges from wires to IPINs (CB muxes) with
  ``Fc_in`` / ``Fc_out`` connectivity fractions.

Every edge is tagged with the FPGA resource type whose mux drives it
(``sb_mux``, ``cb_mux``, ``local_mux``, ``output_mux``); the
temperature-aware STA prices each edge with that resource's delay(T)
evaluated at the temperature of the tile the driving mux sits in.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams


class RRNodeType(IntEnum):
    """Node kinds; each value is the code stored in ``RRGraph.node_type``."""

    SOURCE = 0
    OPIN = 1
    CHANX = 2
    CHANY = 3
    IPIN = 4
    SINK = 5


EDGE_RESOURCES = ("output_mux", "local_mux", "sb_mux", "cb_mux")
"""Mux types that drive an edge; ``RRGraph.edge_resource`` indexes this."""

_OUTPUT_MUX, _LOCAL_MUX, _SB_MUX, _CB_MUX = range(len(EDGE_RESOURCES))


@dataclass(eq=False)
class RRGraph:
    """Routing-resource graph as flat arrays, in the CSR layout of VPR's
    own RR-graph storage.

    Node ``v`` has kind ``node_type[v]`` (an :class:`RRNodeType` code),
    representative tile ``(x[v], y[v])`` (the midpoint for wires, used
    for temperature), ``capacity[v]`` and ``span[v]`` = ``(x_low, y_low,
    x_high, y_high)``, the tiles it covers.  Its out-edges are ids
    ``edge_offsets[v]`` to ``edge_offsets[v + 1]`` of ``edge_dst`` and
    ``edge_resource`` (a code into :data:`EDGE_RESOURCES`), in the order
    the builder added them.  The pin dicts map a tile ``(x, y)`` to its
    pin-class node.  No per-node or per-edge object exists, so a pickled
    graph is a few array buffers.
    """

    node_type: np.ndarray
    x: np.ndarray
    y: np.ndarray
    capacity: np.ndarray
    span: np.ndarray
    edge_offsets: np.ndarray
    edge_dst: np.ndarray
    edge_resource: np.ndarray
    source_of: Dict[Tuple[int, int], int]
    sink_of: Dict[Tuple[int, int], int]
    opin_of: Dict[Tuple[int, int], int]
    ipin_of: Dict[Tuple[int, int], int]

    @property
    def n_nodes(self) -> int:
        return len(self.node_type)

    def edges_of(self, u: int) -> List[Tuple[int, str]]:
        """``(dst, resource name)`` of every out-edge of node ``u``."""
        lo, hi = self.edge_offsets[u], self.edge_offsets[u + 1]
        return [
            (dst, EDGE_RESOURCES[code])
            for dst, code in zip(
                self.edge_dst[lo:hi].tolist(),
                self.edge_resource[lo:hi].tolist(),
            )
        ]


def _pin_counts(arch: ArchParams, tile_type: TileType) -> Tuple[int, int]:
    """(inputs, outputs) of the block in a tile of the given type."""
    if tile_type == TileType.CLB:
        return arch.cluster_inputs, arch.cluster_size
    if tile_type == TileType.BRAM:
        return arch.bram_width_bits + 12, arch.bram_width_bits
    if tile_type == TileType.DSP:
        return 54, 36
    if tile_type == TileType.IO:
        return 8, 8
    return 0, 0


def _pick(candidates: List[int], count: int, salt: int) -> List[int]:
    """Deterministic pseudo-random subset of ``candidates``."""
    if count >= len(candidates):
        return list(candidates)
    keyed = sorted(
        range(len(candidates)),
        key=lambda i: ((i + salt) * 2654435761 + salt * 97) & 0xFFFFFFFF,
    )
    return [candidates[i] for i in keyed[:count]]


def build_rr_graph(arch: ArchParams, layout: FabricLayout) -> RRGraph:
    """Build the routing-resource graph for a layout.

    Uses ``arch.routed_channel_tracks`` as the channel width (the scaled
    routing width — see DESIGN.md) and ``arch.wire_segment_length`` wires.
    Node ids follow the order nodes are created below; each node's
    out-edges keep the order they are added in.  Both go into plain
    lists, turned into the graph's arrays once at the end.
    """
    w_chan = arch.routed_channel_tracks
    seg_len = arch.wire_segment_length
    kinds: List[int] = []
    xs: List[int] = []
    ys: List[int] = []
    caps: List[int] = []
    spans: List[Tuple[int, int, int, int]] = []
    srcs: List[int] = []
    dsts: List[int] = []
    resources: List[int] = []

    def new_node(
        kind: RRNodeType, x: int, y: int, capacity: int,
        span: Optional[Tuple[int, int, int, int]] = None,
    ) -> int:
        kinds.append(kind)
        xs.append(x)
        ys.append(y)
        caps.append(capacity)
        spans.append(span or (x, y, x, y))
        return len(kinds) - 1

    def new_edge(src: int, dst: int, resource: int) -> None:
        srcs.append(src)
        dsts.append(dst)
        resources.append(resource)

    # -- pin nodes -------------------------------------------------------------
    source_of: Dict[Tuple[int, int], int] = {}
    sink_of: Dict[Tuple[int, int], int] = {}
    opin_of: Dict[Tuple[int, int], int] = {}
    ipin_of: Dict[Tuple[int, int], int] = {}
    for tile in layout.tiles():
        n_in, n_out = _pin_counts(arch, tile.type)
        if n_in == 0 and n_out == 0:
            continue
        key = (tile.x, tile.y)
        source_of[key] = new_node(RRNodeType.SOURCE, *key, max(n_out, 1))
        opin_of[key] = new_node(RRNodeType.OPIN, *key, max(n_out, 1))
        ipin_of[key] = new_node(RRNodeType.IPIN, *key, max(n_in, 1))
        sink_of[key] = new_node(RRNodeType.SINK, *key, max(n_in, 1))
        new_edge(source_of[key], opin_of[key], _OUTPUT_MUX)
        new_edge(ipin_of[key], sink_of[key], _LOCAL_MUX)

    # -- wire nodes --------------------------------------------------------------
    # chanx[y] runs along row y; chany[x] along column x.
    first_wire = len(kinds)
    for y in range(layout.height):
        for track in range(w_chan):
            x0 = track % seg_len
            while x0 < layout.width:
                x1 = min(x0 + seg_len - 1, layout.width - 1)
                new_node(RRNodeType.CHANX, (x0 + x1) // 2, y, 1, (x0, y, x1, y))
                x0 += seg_len
    for x in range(layout.width):
        for track in range(w_chan):
            y0 = track % seg_len
            while y0 < layout.height:
                y1 = min(y0 + seg_len - 1, layout.height - 1)
                new_node(RRNodeType.CHANY, x, (y0 + y1) // 2, 1, (x, y0, x, y1))
                y0 += seg_len
    wires = range(first_wire, len(kinds))

    # Index wires by the tiles they cover, for pin and SB connections.
    covers: Dict[Tuple[int, int], List[int]] = {}
    ends_at: Dict[Tuple[int, int], List[int]] = {}
    for wire in wires:
        x0, y0, x1, y1 = spans[wire]
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                covers.setdefault((x, y), []).append(wire)
        ends_at.setdefault((x0, y0), []).append(wire)
        ends_at.setdefault((x1, y1), []).append(wire)

    # -- OPIN -> wires (Fc_out) and wires -> IPIN (Fc_in) -------------------------
    # Pins are aggregated per class (one OPIN/IPIN node per tile with the
    # class capacity), so the connectivity must scale with the class size:
    # a 40-input cluster sees the union of its 40 physical pins' Fc_in
    # switch points.
    for key, opin in opin_of.items():
        candidates = sorted(covers.get(key, []))
        count = max(int(round(arch.fc_out * w_chan)), 2 * caps[opin])
        for wire in _pick(candidates, count, salt=opin):
            new_edge(opin, wire, _SB_MUX)
    for key, ipin in ipin_of.items():
        candidates = sorted(covers.get(key, []))
        count = max(int(round(arch.fc_in * w_chan)), 2 * caps[ipin])
        for wire in _pick(candidates, count, salt=ipin):
            new_edge(wire, ipin, _CB_MUX)

    # -- switch-block edges: wire ends drive other wires ---------------------------
    sb_fanout = 5
    for wire in wires:
        kind = kinds[wire]
        x0, y0, x1, y1 = spans[wire]
        for end in ((x0, y0), (x1, y1)):
            candidates = [
                w for w in covers.get(end, []) if w != wire and kinds[w] != kind
            ]
            straight = [
                w for w in ends_at.get(end, []) if w != wire and kinds[w] == kind
            ]
            targets = _pick(sorted(candidates), sb_fanout - 1, salt=wire) + _pick(
                sorted(straight), 1, salt=wire + 1
            )
            for w in targets:
                new_edge(wire, w, _SB_MUX)

    # CSR: a stable sort by source keeps each node's edges in added order.
    n = len(kinds)
    src = np.asarray(srcs, dtype=np.int32)
    order = np.argsort(src, kind="stable")
    edge_offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=edge_offsets[1:])
    return RRGraph(
        node_type=np.asarray(kinds, dtype=np.int8),
        x=np.asarray(xs, dtype=np.int32),
        y=np.asarray(ys, dtype=np.int32),
        capacity=np.asarray(caps, dtype=np.int32),
        span=np.asarray(spans, dtype=np.int32).reshape(n, 4),
        edge_offsets=edge_offsets,
        edge_dst=np.asarray(dsts, dtype=np.int32)[order],
        edge_resource=np.asarray(resources, dtype=np.int8)[order],
        source_of=source_of,
        sink_of=sink_of,
        opin_of=opin_of,
        ipin_of=ipin_of,
    )
