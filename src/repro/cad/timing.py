"""Temperature-aware static timing analysis.

This is the paper's modified VPR timing analyzer (Sec. IV-A): every delay
element on every path is tagged with the *tile* it occupies, and its delay
is evaluated from the fabric's characterized ``delay(resource, T)`` at that
tile's temperature.  Re-running the analysis under a new per-tile
temperature vector — the inner step of Algorithm 1 (line 4) — is therefore a
single vectorized pass; the entire netlist is re-probed every time because
the critical path itself moves with temperature (paper Sec. III-A).

Hot-loop data layout: at construction every per-sink ``(resource, tile)``
element list is flattened into three parallel arrays — ``_elem_resource``,
``_elem_tile`` and per-sink segment offsets — so one arrival kernel
evaluates every net-segment delay of a ``(n_cells, n_tiles)`` temperature
batch with a single fancy-index gather into the per-cell
``(n_resources, n_tiles)`` delay matrices plus one ``np.add.reduceat``.
Only the levelized block sweep (constant work per fanout edge) stays in
Python.  A single profile is a batch of one.  See DESIGN.md, "Hot-loop data
layout".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.arch.layout import FabricLayout
from repro.cad.pack import PackedNetlist
from repro.cad.place import Placement
from repro.cad.route import RoutingResult
from repro.coffe.characterize import RESOURCE_NAMES
from repro.coffe.fabric import Fabric, GridLerp, grid_lerp
from repro.netlists.netlist import BlockType

FF_CLK_TO_Q_S = 35e-12
FF_SETUP_S = 25e-12
"""Flip-flop constants (temperature dependence negligible vs. the fabric)."""

_RES_INDEX = {name: i for i, name in enumerate(RESOURCE_NAMES)}
_LUT_ROW = _RES_INDEX["lut"]
_BRAM_ROW = _RES_INDEX["bram"]
_DSP_ROW = _RES_INDEX["dsp"]

# Integer block-kind codes for the arrival sweep (avoids per-block Enum
# attribute lookups in the hot loop).
_K_INPUT, _K_FF, _K_BRAM, _K_LUT, _K_DSP, _K_OUTPUT = range(6)
_BLOCK_KIND = {
    BlockType.INPUT: _K_INPUT,
    BlockType.FF: _K_FF,
    BlockType.BRAM: _K_BRAM,
    BlockType.LUT: _K_LUT,
    BlockType.DSP: _K_DSP,
    BlockType.OUTPUT: _K_OUTPUT,
}

Arrivals = Tuple[
    Union[List[float], np.ndarray], Union[List[int], np.ndarray], Dict[int, float]
]
"""One row's per-block input arrivals, worst-predecessor block ids (-1 for
none) and endpoint -> required-path delay: Python lists from the fast
sweep, arrays from the seed's reference pass."""


@dataclass
class TimingReport:
    """Result of one STA evaluation."""

    critical_path_s: float
    frequency_hz: float
    critical_endpoint: int
    """Block id of the failing endpoint."""
    critical_blocks: List[int]
    """Blocks on the critical path, startpoint first."""


class TimingAnalyzer:
    """Tile-tagged timing graph over a placed-and-routed design."""

    def __init__(
        self,
        packed: PackedNetlist,
        placement: Placement,
        routing: RoutingResult,
        layout: FabricLayout,
    ):
        self.packed = packed
        self.placement = placement
        self.layout = layout
        netlist = packed.netlist

        self.block_tile: List[int] = [0] * netlist.n_blocks
        for block in netlist.blocks:
            xy = placement.location[packed.cluster_of_block[block.id]]
            self.block_tile[block.id] = layout.tile_index(*xy)

        self._comb_order = netlist.combinational_order()
        # (net id, sink block) -> [(resource, tile index), ...]
        self.sink_elements: Dict[Tuple[int, int], List[Tuple[str, int]]] = {}
        # net id -> deduplicated elements for dynamic-power accounting
        self.net_power_elements: Dict[int, List[Tuple[str, int]]] = {}
        self._build_net_elements(routing)
        self._build_flat_arrays()

    # Everything _build_flat_arrays derives from sink_elements is dropped
    # when pickling (the on-disk flow cache) and rebuilt on load, so cached
    # flows stay valid across changes to the hot-loop data layout.  The
    # power model's per-flow incidence and tables
    # (repro.power.model.power_incidence, power_tables) are dropped too;
    # they are rebuilt lazily, on the first power model.
    _DERIVED_SLOTS = (
        "_sink_segment", "_elem_resource", "_elem_tile", "_elem_flat",
        "_seg_starts", "_reduceat_ok", "_fanout", "_sweep", "_table_cache",
        "_power_incidence", "_power_tables",
    )

    def __getstate__(self) -> Dict[str, object]:
        state = self.__dict__.copy()
        for name in self._DERIVED_SLOTS:
            state.pop(name, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._build_flat_arrays()

    # -- construction -----------------------------------------------------------

    def _build_net_elements(self, routing: RoutingResult) -> None:
        packed = self.packed
        netlist = packed.netlist
        graph = routing.graph
        node_x = graph.x.tolist()
        node_y = graph.y.tolist()
        edge_resource: Dict[Tuple[int, int], str] = {}

        def resource_of(net_id: int, u: int, v: int) -> str:
            key = (u, v)
            if key not in edge_resource:
                for dst, resource in graph.edges_of(u):
                    edge_resource[(u, dst)] = resource
            try:
                return edge_resource[key]
            except KeyError:
                net = netlist.nets[net_id]
                raise ValueError(
                    f"net {net_id} ({net.name!r}) is routed through edge "
                    f"{u}->{v} which does not exist in the RR graph"
                ) from None

        for net in netlist.nets:
            driver_cluster = packed.cluster_of_block[net.driver]
            src_xy = self.placement.location[driver_cluster]
            route = routing.routes.get(net.id)
            power_nodes: Set[int] = set()
            power_elements: List[Tuple[str, int]] = []

            # Parent pointers over the route tree, to rebuild full paths.
            parent: Dict[int, int] = {}
            if route is not None:
                for path in route.sink_paths.values():
                    for a, b in zip(path, path[1:]):
                        parent[b] = a

            for sink in net.sinks:
                sink_xy = self.placement.location[packed.cluster_of_block[sink]]
                sink_tile = self.layout.tile_index(*sink_xy)
                if sink_xy == src_xy:
                    # Intra-tile connection: feedback mux into the local mux.
                    self.sink_elements[(net.id, sink)] = [
                        ("feedback_mux", sink_tile),
                        ("local_mux", sink_tile),
                    ]
                    continue
                assert route is not None, f"net {net.id} missing a route"
                sink_node = routing.graph.sink_of[sink_xy]
                chain: List[int] = [sink_node]
                while chain[-1] != route.source_node:
                    try:
                        chain.append(parent[chain[-1]])
                    except KeyError:
                        raise ValueError(
                            f"net {net.id} ({net.name!r}) route tree is "
                            f"disconnected at node {chain[-1]}: no path back "
                            f"to source node {route.source_node}"
                        ) from None
                chain.reverse()
                elements: List[Tuple[str, int]] = []
                for u, v in zip(chain, chain[1:]):
                    tile = self.layout.tile_index(node_x[v], node_y[v])
                    elements.append((resource_of(net.id, u, v), tile))
                    if v not in power_nodes:
                        power_nodes.add(v)
                        power_elements.append((resource_of(net.id, u, v), tile))
                self.sink_elements[(net.id, sink)] = elements

            if power_elements:
                self.net_power_elements[net.id] = power_elements

    def _build_flat_arrays(self) -> None:
        """Flatten per-sink element lists into gather-ready index arrays.

        Each ``(net, sink)`` key becomes one *segment* of the flattened
        ``(_elem_resource, _elem_tile)`` arrays; ``_seg_starts`` marks
        segment boundaries for ``np.add.reduceat``.  ``_fanout`` stores, per
        driver block, the ``(sink block, segment)`` pairs its output nets
        feed, so the arrival sweep does constant work per fanout edge.
        """
        elem_resource: List[int] = []
        elem_tile: List[int] = []
        seg_starts: List[int] = []
        self._sink_segment: Dict[Tuple[int, int], int] = {}
        for key, elements in self.sink_elements.items():
            self._sink_segment[key] = len(seg_starts)
            seg_starts.append(len(elem_resource))
            for resource, tile in elements:
                elem_resource.append(_RES_INDEX[resource])
                elem_tile.append(tile)
        self._elem_resource = np.asarray(elem_resource, dtype=np.intp)
        self._elem_tile = np.asarray(elem_tile, dtype=np.intp)
        # Flat index into the raveled (n_resources, n_tiles) delay matrix.
        self._elem_flat = self._elem_resource * self.layout.n_tiles + self._elem_tile
        self._seg_starts = np.asarray(seg_starts, dtype=np.intp)
        seg_ends = np.append(self._seg_starts[1:], self._elem_resource.size)
        # reduceat needs every segment non-empty; routed paths always have
        # >= 1 element and intra-tile sinks exactly 2, but keep a safe path.
        self._reduceat_ok = bool(np.all(seg_ends > self._seg_starts))

        netlist = self.packed.netlist
        self._fanout: List[List[Tuple[int, int]]] = []
        for block in netlist.blocks:
            fanout: List[Tuple[int, int]] = []
            for net_id in block.output_nets:
                for sink in netlist.nets[net_id].sinks:
                    fanout.append((sink, self._sink_segment[(net_id, sink)]))
            self._fanout.append(fanout)

        # Sweep schedule: (block id, kind code, tile, fanout) in levelized
        # order, so the arrival pass touches no Block/Enum objects at all.
        self._sweep: List[Tuple[int, int, int, List[Tuple[int, int]]]] = [
            (
                block_id,
                _BLOCK_KIND[netlist.blocks[block_id].type],
                self.block_tile[block_id],
                self._fanout[block_id],
            )
            for block_id in self._comb_order
        ]

        self._table_cache: Tuple[Optional[Fabric], np.ndarray] = (
            None, np.empty((0, 0))
        )

    # -- evaluation ----------------------------------------------------------------

    def _fabric_delay_table(self, fabric: Fabric) -> np.ndarray:
        """Stacked ``(n_resources, n_grid)`` characterized delay rows,
        cached for the last fabric."""
        cached_fabric, table = self._table_cache
        if cached_fabric is not fabric:
            table = np.vstack(
                [np.asarray(fabric.resources[r].delay_s) for r in RESOURCE_NAMES]
            )
            self._table_cache = (fabric, table)
        return table

    def _delay_matrix(
        self,
        fabric: Fabric,
        t_batch: np.ndarray,
        lerp: Optional[GridLerp] = None,
    ) -> np.ndarray:
        """Delay tables for a temperature batch: ``(n_cells, n_res, n_tiles)``.

        All cells and resources interpolate in one vectorized lerp into the
        stacked characterization table, elementwise per cell, so a row does
        not depend on its batch-mates.  ``lerp`` is ``grid_lerp(t_batch)``
        when the caller already has it.
        """
        table = self._fabric_delay_table(fabric)
        i0, i1, frac = grid_lerp(t_batch) if lerp is None else lerp
        # table[:, i0] gathers to (n_res, n_cells, n_tiles); the lerp
        # broadcasts frac (n_cells, n_tiles) across the resource axis.
        matrix = table[:, i0] * (1.0 - frac) + table[:, i1] * frac
        return matrix.transpose(1, 0, 2)

    def _segment_delays(self, delay_matrices: np.ndarray) -> np.ndarray:
        """Per-cell total delay of every (net, sink) segment:
        ``(n_cells, n_segments)`` from one gather + reduceat."""
        n_cells = delay_matrices.shape[0]
        if self._elem_resource.size == 0:
            return np.zeros((n_cells, self._seg_starts.size))
        flat = delay_matrices.reshape(n_cells, -1)
        elem_delays = np.take(flat, self._elem_flat, axis=1)
        if self._reduceat_ok:
            return np.add.reduceat(elem_delays, self._seg_starts, axis=1)
        cum = np.concatenate(
            [np.zeros((n_cells, 1)), np.cumsum(elem_delays, axis=1)], axis=1
        )
        seg_ends = np.append(self._seg_starts[1:], elem_delays.shape[1])
        return cum[:, seg_ends] - cum[:, self._seg_starts]

    def _arrivals(
        self,
        fabric: Fabric,
        t_batch: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
        *,
        lerp: Optional[GridLerp] = None,
    ) -> List[Arrivals]:
        """Full arrival-time propagation for every row of a temperature batch.

        Per row, returns the per-block input arrivals, worst-predecessor
        indices and a map endpoint block -> required-path delay (arrival +
        setup where applicable).  The temperature-dependent work (delay
        interpolation, net-segment gather/reduce) is vectorized across the
        ``(n_cells, n_tiles)`` batch; only the levelized sweep runs per row.
        Every STA query is this kernel, on a batch of one for a single
        profile.  ``lerp`` is ``grid_lerp(t_batch)`` when the caller has it.
        """
        matrices = self._apply_delay_scale(
            self._delay_matrix(fabric, t_batch, lerp), delay_scale
        )
        seg_delays = self._segment_delays(matrices)
        return [
            self._sweep_arrivals(matrix, seg_delay)
            for matrix, seg_delay in zip(matrices, seg_delays)
        ]

    def _arrivals_at(
        self,
        fabric: Fabric,
        t_tiles,
        delay_scale: Optional[np.ndarray] = None,
    ) -> Arrivals:
        """:meth:`_arrivals` on one profile, as a batch of one."""
        t_row = self._normalize_temps(t_tiles)[None]
        if delay_scale is not None:
            delay_scale = np.asarray(delay_scale, dtype=float)[None]
        return self._arrivals(fabric, t_row, delay_scale)[0]

    def _critical_report(
        self,
        in_pred: Union[List[int], np.ndarray],
        endpoints: Dict[int, float],
    ) -> TimingReport:
        if not endpoints:
            raise ValueError("design has no timing endpoints")
        # max keeps the first endpoint (in sweep order) of the largest delay.
        best_endpoint = max(endpoints, key=endpoints.__getitem__)
        best_cp = endpoints[best_endpoint]
        if best_cp <= 0.0:
            raise ValueError(
                f"non-positive critical-path delay ({best_cp:g} s) at "
                f"endpoint block {best_endpoint}"
            )
        return TimingReport(
            critical_path_s=best_cp,
            frequency_hz=1.0 / best_cp,
            critical_endpoint=best_endpoint,
            critical_blocks=self._chain_to(best_endpoint, in_pred),
        )

    def critical_path_batch(
        self,
        fabric: Fabric,
        t_batch: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
        *,
        lerp: Optional[GridLerp] = None,
    ) -> List[TimingReport]:
        """One :class:`TimingReport` per row of a temperature batch.

        ``t_batch`` is ``(n_cells, n_tiles)`` — one per-tile thermal
        profile per sweep cell sharing this placed netlist.  Each report
        equals :meth:`critical_path` on the corresponding row.
        ``delay_scale`` optionally multiplies the per-cell delay matrices
        entrywise (shape ``(n_cells, n_resources, n_tiles)``) — the batched
        counterpart of the single-profile parameter.  ``lerp`` is
        ``grid_lerp(t_batch)`` when the caller has already computed it
        (Algorithm 1 shares one per profile across STA and power).
        """
        t_batch = np.asarray(t_batch, dtype=float)
        if t_batch.ndim != 2 or t_batch.shape[1] != self.layout.n_tiles:
            raise ValueError(
                f"temperature batch shape {t_batch.shape} != "
                f"(n_cells, {self.layout.n_tiles})"
            )
        return [
            self._critical_report(in_pred, endpoints)
            for _, in_pred, endpoints in self._arrivals(
                fabric, t_batch, delay_scale, lerp=lerp
            )
        ]

    def _normalize_temps(self, t_tiles) -> np.ndarray:
        t_tiles = np.asarray(t_tiles, dtype=float)
        if t_tiles.ndim == 0:
            t_tiles = np.full(self.layout.n_tiles, float(t_tiles))
        if len(t_tiles) != self.layout.n_tiles:
            raise ValueError(
                f"temperature vector has {len(t_tiles)} entries, layout has "
                f"{self.layout.n_tiles} tiles"
            )
        return t_tiles

    def _apply_delay_scale(
        self, matrix: np.ndarray, delay_scale: Optional[np.ndarray]
    ) -> np.ndarray:
        """Multiply optional per-(resource, tile) factors into delay matrices.

        Applied *after* the temperature interpolation; with
        ``delay_scale=None`` the matrices are returned as-is.
        """
        if delay_scale is None:
            return matrix
        delay_scale = np.asarray(delay_scale, dtype=float)
        if delay_scale.shape != matrix.shape:
            raise ValueError(
                f"delay_scale shape {delay_scale.shape} != delay matrix "
                f"shape {matrix.shape}"
            )
        return matrix * delay_scale

    def _sweep_arrivals(
        self, delay_matrix: np.ndarray, seg_delays: np.ndarray
    ) -> Tuple[List[float], List[int], Dict[int, float]]:
        """The levelized arrival sweep over one row's pre-evaluated delays.

        Everything temperature-dependent is already folded into
        ``delay_matrix`` / ``seg_delays``, so the sweep itself is pure
        graph traversal, constant work per fanout edge on Python floats.
        Its arrivals and predecessors stay Python lists: the report walks
        them as plain ints.
        """
        seg_delay = seg_delays.tolist()
        lut_d = delay_matrix[_LUT_ROW].tolist()
        bram_d = delay_matrix[_BRAM_ROW].tolist()
        dsp_d = delay_matrix[_DSP_ROW].tolist()

        n = self.packed.netlist.n_blocks
        in_arrival = [0.0] * n
        in_pred = [-1] * n
        endpoints: Dict[int, float] = {}

        for block_id, kind, tile, fanout in self._sweep:
            if kind == _K_LUT:
                t_out = in_arrival[block_id] + lut_d[tile]
            elif kind == _K_FF:
                endpoints[block_id] = in_arrival[block_id] + FF_SETUP_S
                t_out = FF_CLK_TO_Q_S
            elif kind == _K_INPUT:
                t_out = 0.0
            elif kind == _K_BRAM:
                endpoints[block_id] = in_arrival[block_id] + FF_SETUP_S
                t_out = bram_d[tile]
            elif kind == _K_DSP:
                t_out = in_arrival[block_id] + dsp_d[tile]
            else:  # OUTPUT pad: endpoint only
                t_out = in_arrival[block_id]
                endpoints[block_id] = t_out

            for sink, segment in fanout:
                arr = t_out + seg_delay[segment]
                if arr > in_arrival[sink]:
                    in_arrival[sink] = arr
                    in_pred[sink] = block_id
        return in_arrival, in_pred, endpoints

    def _arrival_pass_reference(
        self,
        fabric: Fabric,
        t_tiles: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[int, float]]:
        """Seed (pre-vectorization) arrival pass, kept verbatim.

        Walks the per-sink ``(resource, tile)`` element lists in Python.
        Used by the equivalence tests and as the hot-loop benchmark's
        baseline (see :mod:`repro.core.reference`).  ``delay_scale``
        multiplies each resource's per-tile delay row, mirroring the
        vectorized pass's voltage-scaling hook.
        """
        delays = {
            r: np.asarray(fabric.delay_s(r, t_tiles)) for r in RESOURCE_NAMES
        }
        if delay_scale is not None:
            scale = np.asarray(delay_scale, dtype=float)
            delays = {
                r: delays[r] * scale[i]
                for i, r in enumerate(RESOURCE_NAMES)
            }
        netlist = self.packed.netlist
        n = netlist.n_blocks
        in_arrival = np.zeros(n)
        in_pred = np.full(n, -1, dtype=int)
        endpoints: Dict[int, float] = {}

        for block_id in self._comb_order:
            block = netlist.blocks[block_id]
            tile = self.block_tile[block_id]
            if block.type == BlockType.INPUT:
                t_out = 0.0
            elif block.type == BlockType.FF:
                t_out = FF_CLK_TO_Q_S
            elif block.type == BlockType.BRAM:
                t_out = float(delays["bram"][tile])
            elif block.type == BlockType.LUT:
                t_out = in_arrival[block_id] + float(delays["lut"][tile])
            elif block.type == BlockType.DSP:
                t_out = in_arrival[block_id] + float(delays["dsp"][tile])
            else:  # OUTPUT pad: endpoint only
                t_out = in_arrival[block_id]

            if block.type in (BlockType.FF, BlockType.BRAM):
                endpoints[block_id] = in_arrival[block_id] + FF_SETUP_S
            elif block.type == BlockType.OUTPUT:
                endpoints[block_id] = t_out

            for net_id in block.output_nets:
                net = netlist.nets[net_id]
                for sink in net.sinks:
                    elements = self.sink_elements[(net_id, sink)]
                    d_net = 0.0
                    for resource, elem_tile in elements:
                        d_net += float(delays[resource][elem_tile])
                    arr = t_out + d_net
                    if arr > in_arrival[sink]:
                        in_arrival[sink] = arr
                        in_pred[sink] = block_id
        return in_arrival, in_pred, endpoints

    def _chain_to(
        self, endpoint: int, in_pred: Union[List[int], np.ndarray]
    ) -> List[int]:
        preds = in_pred.tolist() if isinstance(in_pred, np.ndarray) else in_pred
        chain: List[int] = [endpoint]
        pred = preds[endpoint]
        while pred >= 0:
            chain.append(pred)
            pred = preds[pred]
        chain.reverse()
        return chain

    def critical_path(
        self,
        fabric: Fabric,
        t_tiles: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
    ) -> TimingReport:
        """Longest register-to-register (or PI/PO) path delay.

        ``t_tiles`` is the per-tile temperature vector in Celsius (length =
        number of layout tiles).  A scalar broadcasts to a uniform die
        temperature.  ``delay_scale`` optionally multiplies the
        ``(n_resources, n_tiles)`` delay matrix entrywise — e.g. the
        supply-voltage factors of :mod:`repro.power.voltage` in the
        energy-mode objective.
        """
        _, in_pred, endpoints = self._arrivals_at(fabric, t_tiles, delay_scale)
        return self._critical_report(in_pred, endpoints)

    def critical_path_resource_mix(
        self, fabric: Fabric, t_tiles: np.ndarray
    ) -> Dict[str, float]:
        """Fraction of the critical-path delay per resource type.

        Explains the per-benchmark spread of guardbanding gains (DSP-heavy
        paths gain most — paper Figs. 6-8).
        """
        t_tiles = self._normalize_temps(t_tiles)
        _, in_pred, endpoints = self._arrivals_at(fabric, t_tiles)
        report = self._critical_report(in_pred, endpoints)
        delays = self._delay_matrix(fabric, t_tiles[None])[0]
        netlist = self.packed.netlist
        totals: Dict[str, float] = {}

        def add(resource: str, tile: int) -> None:
            totals[resource] = totals.get(resource, 0.0) + float(
                delays[_RES_INDEX[resource], tile]
            )

        for prev, current in zip(report.critical_blocks, report.critical_blocks[1:]):
            # Net segment between prev and current.
            for net_id in netlist.blocks[prev].output_nets:
                if current in netlist.nets[net_id].sinks:
                    for resource, tile in self.sink_elements[(net_id, current)]:
                        add(resource, tile)
                    break
            block = netlist.blocks[current]
            if block.type == BlockType.LUT:
                add("lut", self.block_tile[current])
            elif block.type == BlockType.DSP:
                add("dsp", self.block_tile[current])
        start = netlist.blocks[report.critical_blocks[0]]
        if start.type == BlockType.BRAM:
            add("bram", self.block_tile[start.id])
        total = sum(totals.values()) or 1.0
        return {k: v / total for k, v in sorted(totals.items())}
