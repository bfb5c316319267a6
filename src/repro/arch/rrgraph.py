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
from typing import Dict, List, Tuple

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


_KEY_MUL = 2654435761
_KEY_MOD = 1 << 32


def _keyed_picks(
    n: np.ndarray, salt: np.ndarray, count: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Which candidates each row keeps, in the order it keeps them.

    Row ``r`` has ``n[r]`` candidates, indexed ``0 .. n[r] - 1``.  It
    keeps all of them, in index order, when ``count[r] >= n[r]``, and
    otherwise the ``count[r]`` indices with the smallest key
    ``((i + s) * 2654435761 + s * 97) mod 2**32`` (``s = salt[r]``),
    smallest first.  Returns the row and the index of every kept
    candidate, row by row, as ``int64`` arrays.

    That key is ``(i * 2654435761 + c) mod 2**32`` with ``c = s *
    (2654435761 + 97) mod 2**32``: the salt turns every key of a row by
    the same ``c`` around the ``2**32`` circle.  So a row's keyed
    argsort is the argsort of the salt-free keys ``i * 2654435761 mod
    2**32`` (one per row length; the multiplier is odd, so no two keys
    of a row tie) started at the first index whose key wraps past
    ``2**32``: one ``searchsorted`` per row, and no array longer than
    the kept candidates.
    """
    take = np.minimum(count, n)
    rows = np.repeat(np.arange(n.size, dtype=np.int64), take)
    index = np.arange(rows.size, dtype=np.int64)
    index -= np.repeat(np.cumsum(take) - take, take)
    keyed = count < n
    # The distinct lengths of keyed rows, by a count rather than
    # np.unique, whose code adds about 1 MB to a flow process's RSS.
    lengths = np.flatnonzero(np.bincount(n[keyed])).tolist()
    if not lengths:
        return rows, index
    # Per keyed row: where its length's salt-free argsort starts in the
    # concatenated ``orders``, and where its salt turns that argsort to.
    base = np.zeros(n.size, dtype=np.int64)
    start = np.zeros(n.size, dtype=np.int64)
    orders = []
    for length in lengths:
        keys = np.arange(length, dtype=np.int64) * _KEY_MUL % _KEY_MOD
        order = np.argsort(keys, kind="stable")  # no ties; less code than quicksort
        group = keyed & (n == length)
        turn = salt[group] * (_KEY_MUL + 97) % _KEY_MOD
        base[group] = sum(o.size for o in orders)
        start[group] = np.searchsorted(keys[order], _KEY_MOD - turn)
        orders.append(order)
    sel = keyed[rows]
    r = rows[sel]
    index[sel] = np.concatenate(orders)[
        base[r] + (start[r] + index[sel]) % n[r]
    ]
    return rows, index


def _by_position(at: np.ndarray, p: np.ndarray, per: int, length: int
                 ) -> Tuple[np.ndarray, ...]:
    """CSR index of pattern segments by position along a channel, for
    entries ``(at[k], p[k])`` (segment ``p[k]`` listed at position
    ``at[k]``): the sorted keys ``at * per + p``, the segments in key
    order (so each position's segments in id order), and per position
    the entry count and first entry."""
    key = at * per + p
    order = np.argsort(key, kind="stable")
    count = np.bincount(at, minlength=length)
    return key[order], p[order], count, np.cumsum(count) - count


class _Channels:
    """One wire family (every CHANX or every CHANY wire) by segment
    arithmetic.

    All ``n_channels`` channels share one pattern of ``per_channel``
    segments, ``lo[p] .. hi[p]`` along the channel with midpoint
    ``mid[p]``: track ``t`` starts at ``t % seg_len`` and steps by
    ``seg_len``, tracks in order.  Wire
    ``p`` of channel ``c`` is node ``first + c * per_channel + p``, so
    ids run channel by channel, track by track, along the channel.  Two
    CSR indexes of the pattern, both in id order, serve every position
    ``u`` along a channel: ``cover_*``, the segments covering ``u`` (one
    per track that reaches it), and ``end_*``, the segments with an end
    at ``u`` (a one-tile segment twice).  ``end_key`` holds ``u *
    per_channel + p`` of each ``end_idx`` entry, sorted.
    """

    def __init__(self, first: int, n_channels: int, length: int,
                 w_chan: int, seg_len: int) -> None:
        offset = np.arange(w_chan, dtype=np.int64) % seg_len
        starts = offset[:, None] + seg_len * np.arange(
            len(range(0, length, seg_len)), dtype=np.int64)
        self.first = first
        self.n_channels = n_channels
        self.lo = starts[starts < length]  # track by track
        self.hi = np.minimum(self.lo + seg_len - 1, length - 1)
        self.per_channel = per = self.lo.size
        # (lo + hi) // 2 by table, off numpy's integer floor division.
        half = np.array([d // 2 for d in range(seg_len)], dtype=np.int64)
        self.mid = self.lo + half[self.hi - self.lo]
        pattern = np.arange(per, dtype=np.int64)
        tiles = self.hi - self.lo + 1
        run = np.repeat(np.cumsum(tiles) - tiles, tiles)
        covered = np.repeat(self.lo, tiles) + np.arange(run.size) - run
        _, self.cover_idx, self.cover_len, self.cover_off = _by_position(
            covered, np.repeat(pattern, tiles), per, length)
        self.end_key, self.end_idx, self.end_len, self.end_off = _by_position(
            np.concatenate([self.lo, self.hi]),
            np.concatenate([pattern, pattern]), per, length)

    @property
    def n_wires(self) -> int:
        return self.n_channels * self.per_channel

    def covering(self, channel: np.ndarray, along: np.ndarray,
                 i: np.ndarray) -> np.ndarray:
        """Node id of the ``i``-th wire of ``channel`` covering ``along``."""
        return (self.first + channel * self.per_channel
                + self.cover_idx[self.cover_off[along] + i])

    def switch_block(self, other: "_Channels", fanout: int
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(src, dst)`` of every switch-block edge out of these wires,
        in the order one wire's edges are added: each end in turn (low,
        then high), its ``fanout - 1`` picks among the ``other`` family's
        wires covering the end's tile, then its one pick among this
        family's other wires ending there.

        An end at position ``u`` of channel ``c`` sits at position ``c``
        of the other family's channel ``u``.  The picks are salted with
        the wire id (cross) and the id plus one (straight); a one-tile
        wire, whose two ends share a tile, picks the same twice.
        """
        per = self.per_channel
        c = np.repeat(np.arange(self.n_channels, dtype=np.int64), 2 * per)
        p = np.tile(np.repeat(np.arange(per, dtype=np.int64), 2),
                    self.n_channels)
        u = np.tile(np.stack([self.lo, self.hi], axis=1).ravel(),
                    self.n_channels)
        src = self.first + c * per + p
        # The straight candidates are the end_idx entries at u less every
        # copy of the wire itself; ``me`` is where its first copy sits.
        copies = 1 + (self.lo == self.hi).astype(np.int64)[p]
        me = np.searchsorted(self.end_key, u * per + p)
        # Two pick rows per end: cross-channel, then straight.
        rows, index = _keyed_picks(
            np.stack([other.cover_len[c], self.end_len[u] - copies],
                     axis=1).ravel(),
            np.stack([src, src + 1], axis=1).ravel(),
            np.tile(np.array([fanout - 1, 1], dtype=np.int64), src.size),
        )
        end = np.repeat(np.arange(src.size, dtype=np.int64), 2)[rows]
        straight = np.tile(np.array([False, True]), src.size)[rows]
        dst = np.empty(rows.size, dtype=np.int64)
        e = end[~straight]
        dst[~straight] = other.covering(u[e], c[e], index[~straight])
        e = end[straight]
        at = self.end_off[u[e]] + index[straight]
        at += copies[e] * (at >= me[e])
        dst[straight] = self.first + c[e] * per + self.end_idx[at]
        return src[end], dst


def build_rr_graph(arch: ArchParams, layout: FabricLayout) -> RRGraph:
    """Build the routing-resource graph for a layout.

    Uses ``arch.routed_channel_tracks`` as the channel width (the scaled
    routing width — see DESIGN.md) and ``arch.wire_segment_length`` wires.
    Node ids: each pin tile's SOURCE, OPIN, IPIN and SINK in tile order,
    then the CHANX wires row by row, then the CHANY wires column by
    column (see :class:`_Channels`).  Edges are built as arrays, each
    source's in the order they are added (pin edges, OPIN -> wire,
    wire -> IPIN, then switch-block edges wire by wire), and a stable
    sort by source turns them into CSR rows that keep that order.  Every
    pick of a subset of candidates goes through :func:`_keyed_picks`.

    Index arithmetic runs in ``int64`` and is cast to the graph's
    ``int32`` at the end, and the build calls no integer floor
    division, integer bitwise operator, ``np.sort`` or ``np.unique``: a
    flow or sweep process runs none of those numpy kernels elsewhere,
    and the first call of each maps 64 KB or more of its machine code
    into the process's resident memory for good.
    """
    w_chan = arch.routed_channel_tracks
    seg_len = arch.wire_segment_length
    width, height = layout.width, layout.height

    # -- pin nodes ---------------------------------------------------------------
    tiles = []
    for tile in layout.tiles():
        n_in, n_out = _pin_counts(arch, tile.type)
        if n_in or n_out:
            tiles.append((tile.x, tile.y, max(n_in, 1), max(n_out, 1)))
    px, py, n_in, n_out = np.array(tiles, dtype=np.int64).reshape(-1, 4).T
    source = np.arange(0, 4 * px.size, 4, dtype=np.int64)
    opin, ipin, sink = source + 1, source + 2, source + 3

    # -- wire nodes: chanx[y] runs along row y, chany[x] along column x ---------
    chanx = _Channels(4 * px.size, height, width, w_chan, seg_len)
    chany = _Channels(chanx.first + chanx.n_wires, width, height,
                      w_chan, seg_len)
    row = np.repeat(np.arange(height, dtype=np.int64), chanx.per_channel)
    col = np.repeat(np.arange(width, dtype=np.int64), chany.per_channel)
    x_lo, x_hi = np.tile(chanx.lo, height), np.tile(chanx.hi, height)
    y_lo, y_hi = np.tile(chany.lo, width), np.tile(chany.hi, width)
    x_mid, y_mid = np.tile(chanx.mid, height), np.tile(chany.mid, width)
    pin_x, pin_y = np.repeat(px, 4), np.repeat(py, 4)
    node_type = np.concatenate([
        np.tile(np.array([RRNodeType.SOURCE, RRNodeType.OPIN,
                          RRNodeType.IPIN, RRNodeType.SINK], dtype=np.int8),
                px.size),
        np.full(chanx.n_wires, RRNodeType.CHANX, dtype=np.int8),
        np.full(chany.n_wires, RRNodeType.CHANY, dtype=np.int8),
    ])
    n = node_type.size
    capacity = np.concatenate([
        np.stack([n_out, n_out, n_in, n_in], axis=1).ravel(),
        np.ones(n - 4 * px.size, dtype=np.int64),
    ]).astype(np.int32)
    span = np.stack([
        np.concatenate([pin_x, x_lo, col]),
        np.concatenate([pin_y, row, y_lo]),
        np.concatenate([pin_x, x_hi, col]),
        np.concatenate([pin_y, row, y_hi]),
    ], axis=1).astype(np.int32)
    x = np.concatenate([pin_x, x_mid, col]).astype(np.int32)
    y = np.concatenate([pin_y, row, y_mid]).astype(np.int32)

    parts = []

    def add_edges(src: np.ndarray, dst: np.ndarray, resource: int) -> None:
        parts.append((src.astype(np.int32), dst.astype(np.int32),
                      np.full(src.size, resource, dtype=np.int8)))

    # Only SOURCE nodes drive output muxes and only IPIN nodes local
    # muxes, so adding all of one kind, then the other, keeps every
    # node's edge order.
    add_edges(source, opin, _OUTPUT_MUX)
    add_edges(ipin, sink, _LOCAL_MUX)

    # -- OPIN -> wires (Fc_out) and wires -> IPIN (Fc_in) -------------------------
    # A pin tile's candidates are the wires covering it in id order: its
    # row's CHANX wires, then its column's CHANY wires.  Pins are
    # aggregated per class (one OPIN/IPIN node per tile with the class
    # capacity), so the connectivity must scale with the class size: a
    # 40-input cluster sees the union of its 40 physical pins' Fc_in
    # switch points.
    n_row = chanx.cover_len[px]
    n_cover = n_row + chany.cover_len[py]

    def fc_picks(pin: np.ndarray, fc: float, cap: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
        count = np.maximum(int(round(fc * w_chan)), 2 * cap)
        rows, i = _keyed_picks(n_cover, pin, count)
        in_row = i < n_row[rows]
        wire = np.where(
            in_row,
            chanx.covering(py[rows], px[rows], np.where(in_row, i, 0)),
            chany.covering(px[rows], py[rows],
                           np.where(in_row, 0, i - n_row[rows])),
        )
        return pin[rows], wire

    add_edges(*fc_picks(opin, arch.fc_out, n_out), _SB_MUX)
    ipins, wires = fc_picks(ipin, arch.fc_in, n_in)
    add_edges(wires, ipins, _CB_MUX)

    # -- switch-block edges: wire ends drive other wires ---------------------------
    sb_fanout = 5
    add_edges(*chanx.switch_block(chany, sb_fanout), _SB_MUX)
    add_edges(*chany.switch_block(chanx, sb_fanout), _SB_MUX)

    # CSR: a stable sort by source keeps each node's edges in added order.
    src, dst, resource = map(np.concatenate, zip(*parts))
    parts.clear()  # the pieces go before the sort, where the build peaks
    order = np.argsort(src, kind="stable")
    edge_offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(src, minlength=n), out=edge_offsets[1:])
    keys = list(zip(px.tolist(), py.tolist()))
    return RRGraph(
        node_type=node_type,
        x=x,
        y=y,
        capacity=capacity,
        span=span,
        edge_offsets=edge_offsets,
        edge_dst=dst[order],
        edge_resource=resource[order],
        source_of=dict(zip(keys, source.tolist())),
        sink_of=dict(zip(keys, sink.tolist())),
        opin_of=dict(zip(keys, opin.tolist())),
        ipin_of=dict(zip(keys, ipin.tolist())),
    )
