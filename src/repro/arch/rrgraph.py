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
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams


class RRNodeType(Enum):
    SOURCE = "source"
    OPIN = "opin"
    CHANX = "chanx"
    CHANY = "chany"
    IPIN = "ipin"
    SINK = "sink"


@dataclass
class RRNode:
    """One routing-resource node."""

    id: int
    type: RRNodeType
    x: int
    y: int
    """Representative tile (midpoint for wires) — used for temperature."""
    capacity: int
    span: Tuple[int, int, int, int] = (0, 0, 0, 0)
    """(x_low, y_low, x_high, y_high) tiles covered (wires span several)."""


@dataclass
class RREdge:
    """Directed edge; ``resource`` names the mux type that drives it."""

    src: int
    dst: int
    resource: str


class RRGraph:
    """Flat adjacency-list routing-resource graph."""

    def __init__(self, layout: FabricLayout):
        self.layout = layout
        self.nodes: List[RRNode] = []
        self.out_edges: List[List[RREdge]] = []
        self.source_of: Dict[Tuple[int, int], int] = {}
        self.sink_of: Dict[Tuple[int, int], int] = {}
        self.opin_of: Dict[Tuple[int, int], int] = {}
        self.ipin_of: Dict[Tuple[int, int], int] = {}

    def add_node(
        self,
        type_: RRNodeType,
        x: int,
        y: int,
        capacity: int,
        span: Optional[Tuple[int, int, int, int]] = None,
    ) -> int:
        node_id = len(self.nodes)
        self.nodes.append(
            RRNode(node_id, type_, x, y, capacity, span or (x, y, x, y))
        )
        self.out_edges.append([])
        return node_id

    def add_edge(self, src: int, dst: int, resource: str) -> None:
        self.out_edges[src].append(RREdge(src, dst, resource))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


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
    """
    graph = RRGraph(layout)
    w_chan = arch.routed_channel_tracks
    seg_len = arch.wire_segment_length

    # -- pin nodes -------------------------------------------------------------
    for tile in layout.tiles():
        n_in, n_out = _pin_counts(arch, tile.type)
        if n_in == 0 and n_out == 0:
            continue
        key = (tile.x, tile.y)
        graph.source_of[key] = graph.add_node(
            RRNodeType.SOURCE, tile.x, tile.y, max(n_out, 1)
        )
        graph.opin_of[key] = graph.add_node(
            RRNodeType.OPIN, tile.x, tile.y, max(n_out, 1)
        )
        graph.ipin_of[key] = graph.add_node(
            RRNodeType.IPIN, tile.x, tile.y, max(n_in, 1)
        )
        graph.sink_of[key] = graph.add_node(
            RRNodeType.SINK, tile.x, tile.y, max(n_in, 1)
        )
        graph.add_edge(graph.source_of[key], graph.opin_of[key], "output_mux")
        graph.add_edge(graph.ipin_of[key], graph.sink_of[key], "local_mux")

    # -- wire nodes --------------------------------------------------------------
    # chanx[y] runs along row y; chany[x] along column x.
    chanx_wires: Dict[int, List[int]] = {y: [] for y in range(layout.height)}
    chany_wires: Dict[int, List[int]] = {x: [] for x in range(layout.width)}
    for y in range(layout.height):
        for track in range(w_chan):
            start = track % seg_len
            x0 = start
            while x0 < layout.width:
                x1 = min(x0 + seg_len - 1, layout.width - 1)
                node = graph.add_node(
                    RRNodeType.CHANX, (x0 + x1) // 2, y, 1, (x0, y, x1, y)
                )
                chanx_wires[y].append(node)
                x0 += seg_len
    for x in range(layout.width):
        for track in range(w_chan):
            start = track % seg_len
            y0 = start
            while y0 < layout.height:
                y1 = min(y0 + seg_len - 1, layout.height - 1)
                node = graph.add_node(
                    RRNodeType.CHANY, x, (y0 + y1) // 2, 1, (x, y0, x, y1)
                )
                chany_wires[x].append(node)
                y0 += seg_len

    # Index wires by the tiles they cover, for pin and SB connections.
    covers: Dict[Tuple[int, int], List[int]] = {}
    ends_at: Dict[Tuple[int, int], List[int]] = {}
    for node in graph.nodes:
        if node.type not in (RRNodeType.CHANX, RRNodeType.CHANY):
            continue
        x0, y0, x1, y1 = node.span
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                covers.setdefault((x, y), []).append(node.id)
        ends_at.setdefault((x0, y0), []).append(node.id)
        ends_at.setdefault((x1, y1), []).append(node.id)

    # -- OPIN -> wires (Fc_out) and wires -> IPIN (Fc_in) -------------------------
    # Pins are aggregated per class (one OPIN/IPIN node per tile with the
    # class capacity), so the connectivity must scale with the class size:
    # a 40-input cluster sees the union of its 40 physical pins' Fc_in
    # switch points.
    for key, opin in graph.opin_of.items():
        candidates = sorted(covers.get(key, []))
        count = max(
            int(round(arch.fc_out * w_chan)), 2 * graph.nodes[opin].capacity
        )
        for wire in _pick(candidates, count, salt=opin):
            graph.add_edge(opin, wire, "sb_mux")
    for key, ipin in graph.ipin_of.items():
        candidates = sorted(covers.get(key, []))
        count = max(
            int(round(arch.fc_in * w_chan)), 2 * graph.nodes[ipin].capacity
        )
        for wire in _pick(candidates, count, salt=ipin):
            graph.add_edge(wire, ipin, "cb_mux")

    # -- switch-block edges: wire ends drive other wires ---------------------------
    sb_fanout = 5
    for node in graph.nodes:
        if node.type not in (RRNodeType.CHANX, RRNodeType.CHANY):
            continue
        x0, y0, x1, y1 = node.span
        for end in ((x0, y0), (x1, y1)):
            candidates = [
                w
                for w in covers.get(end, [])
                if w != node.id and graph.nodes[w].type != node.type
            ]
            straight = [
                w
                for w in ends_at.get(end, [])
                if w != node.id and graph.nodes[w].type == node.type
            ]
            targets = _pick(sorted(candidates), sb_fanout - 1, salt=node.id) + _pick(
                sorted(straight), 1, salt=node.id + 1
            )
            for w in targets:
                graph.add_edge(node.id, w, "sb_mux")

    return graph
