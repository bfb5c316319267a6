"""Per-tile power model.

Implements Algorithm 1 line 5: ``p = p_dyn(netlist, alpha, f) + p_lkg(T)``.

- **Dynamic** power accrues only on *used* resources: every mux a routed
  net passes through (with that net's activity), every occupied LUT, and
  the hard blocks — scaled linearly in frequency and activity from the
  characterized 100 MHz / alpha=1 base (paper Sec. IV-A).
- **Leakage** accrues on the *entire tile inventory* (an FPGA leaks in all
  its configurable resources whether used or not — the very reason the
  paper calls FPGAs "an abundance of leaky resources"), evaluated at each
  tile's own temperature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.activity.ace import _PAIRWISE_BLOCK, ActivityEstimate
from repro.arch.layout import TileType
from repro.arch.params import ArchParams
from repro.cad.flow import FlowResult
from repro.coffe.fabric import Fabric, grid_lerp
from repro.netlists.netlist import BlockType
from repro.power.voltage import FIXED_RAIL_RESOURCES, VoltageScaling

RESOURCES = (
    "sb_mux", "cb_mux", "local_mux", "feedback_mux", "output_mux",
    "lut", "bram", "dsp",
)
_RES_INDEX = {name: i for i, name in enumerate(RESOURCES)}

#: The dynamic-power resource of a LUT, BRAM or DSP block.
_BLOCK_RESOURCE = {
    BlockType.LUT: "lut", BlockType.BRAM: "bram", BlockType.DSP: "dsp",
}

#: True where the resource sits on the fixed (BRAM) supply rail and is
#: therefore exempt from soft-fabric voltage scaling.
_FIXED_RAIL_MASK = np.array([name in FIXED_RAIL_RESOURCES for name in RESOURCES])


def tile_inventory(arch: ArchParams, tile_type: TileType) -> Dict[str, float]:
    """Leaky resource counts of one tile (cluster + neighbouring routing).

    The CLB inventory reproduces the paper's soft-fabric tile: with Table II
    areas it sums to ~1196 um^2 (paper Sec. IV-A).  Hard-block tiles carry
    their block plus a routing interface.
    """
    sb_per_tile = arch.channel_tracks / 2.0
    if tile_type == TileType.CLB:
        return {
            "lut": float(arch.cluster_size),
            "local_mux": float(arch.cluster_size * arch.lut_size),
            "feedback_mux": float(arch.cluster_size),
            "output_mux": float(arch.cluster_size),
            "sb_mux": sb_per_tile,
            "cb_mux": float(arch.cluster_inputs),
        }
    if tile_type == TileType.BRAM:
        return {"bram": 1.0, "sb_mux": sb_per_tile, "cb_mux": 20.0}
    if tile_type == TileType.DSP:
        return {"dsp": 1.0, "sb_mux": sb_per_tile, "cb_mux": 27.0}
    if tile_type == TileType.IO:
        return {"sb_mux": sb_per_tile / 2.0, "cb_mux": 8.0}
    return {}


@dataclass
class PowerBreakdown:
    """Per-tile power split at one operating point.

    ``dynamic_w``/``leakage_w`` are ``(n_tiles,)`` vectors for one
    operating point, or ``(n_cells, n_tiles)`` arrays for a batched
    evaluation (one row per cell).  The derived totals are computed once
    per breakdown and cached — Algorithm 1's hot loop reads them several
    times per iteration, and the inputs are never mutated after
    :meth:`PowerModel.evaluate` returns.
    """

    dynamic_w: np.ndarray
    leakage_w: np.ndarray
    _total_w: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )
    _total_watts: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def total_w(self) -> np.ndarray:
        if self._total_w is None:
            self._total_w = self.dynamic_w + self.leakage_w
        return self._total_w

    @property
    def total_watts(self) -> float:
        """Whole-die total, watts (summed over every axis)."""
        if self._total_watts is None:
            self._total_watts = float(self.total_w.sum())
        return self._total_watts

    def total_watts_per_cell(self) -> np.ndarray:
        """Per-cell totals of a batched ``(n_cells, n_tiles)`` breakdown."""
        if self.total_w.ndim != 2:
            raise ValueError("per-cell totals need a batched breakdown")
        return self.total_w.sum(axis=1)


@dataclass(frozen=True, eq=False)
class PowerIncidence:
    """Where every dynamic-power user of one placed flow lands.

    Depends only on the flow (its routing, netlist, layout and arch), never
    on the activity, the fabric or a temperature, so it is derived once per
    flow and shared by every :class:`PowerModel` built on it.  Users are in
    the order the seed's per-resource loops visited them: routed elements
    (``net_power_elements``, then the intra-tile ``sink_elements``), then
    hard blocks in netlist order.  Every array is read-only.
    """

    counts: np.ndarray
    """``(n_resources, n_tiles)`` leaky inventory of every tile."""
    flat: np.ndarray
    """``(n_users,)`` flat ``resource * n_tiles + tile`` index per user."""
    nets: np.ndarray
    """``(n_routed,)`` net id of each routed user (the first users)."""
    block_nets: Tuple[Tuple[int, ...], ...]
    """Per hard-block user (they follow the routed ones), the nets its
    activity averages: its output nets, else its input nets."""

    def block_alphas(self, alpha: np.ndarray) -> List[float]:
        """Each hard block's activity: the mean over its nets, 0 with none."""
        values = alpha.tolist()
        out: List[float] = []
        for nets in self.block_nets:
            fanin = len(nets)
            if not fanin:
                out.append(0.0)
            elif fanin < _PAIRWISE_BLOCK:
                # The left fold numpy's pairwise sum is below 8 terms, so
                # this equals np.mean bit for bit; builtin sum() does not.
                total = 0.0
                for net_id in nets:
                    total += values[net_id]
                out.append(total / fanin)
            else:
                out.append(float(np.mean([values[n] for n in nets])))
        return out


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _build_incidence(flow: FlowResult) -> PowerIncidence:
    layout = flow.layout
    n_tiles = layout.n_tiles
    # Leakage inventory matrix: counts[resource, tile], one inventory row
    # per tile type.
    inventory: Dict[TileType, np.ndarray] = {}
    for tile_type in TileType:
        row = np.zeros(len(RESOURCES))
        for name, count in tile_inventory(flow.arch, tile_type).items():
            row[_RES_INDEX[name]] = count
        inventory[tile_type] = row
    counts = np.ascontiguousarray(
        np.array([inventory[tile.type] for tile in layout.tiles()]).T
    )

    flat: List[int] = []
    nets: List[int] = []
    timing = flow.timing
    # Intra-tile feedback/local muxes are not in net_power_elements.
    intra_tile = (
        (net_id, elements)
        for (net_id, _sink), elements in timing.sink_elements.items()
        if elements and elements[0][0] == "feedback_mux"
    )
    for net_id, elements in chain(timing.net_power_elements.items(), intra_tile):
        for resource, tile in elements:
            flat.append(_RES_INDEX[resource] * n_tiles + tile)
            nets.append(net_id)
    block_nets: List[Tuple[int, ...]] = []
    for block in flow.netlist.blocks:
        resource = _BLOCK_RESOURCE.get(block.type)
        if resource is None:
            continue
        flat.append(_RES_INDEX[resource] * n_tiles + timing.block_tile[block.id])
        block_nets.append(tuple(block.output_nets or block.input_nets))
    return PowerIncidence(
        counts=_read_only(counts),
        flat=_read_only(np.asarray(flat, dtype=np.intp)),
        nets=_read_only(np.asarray(nets, dtype=np.intp)),
        block_nets=tuple(block_nets),
    )


def power_incidence(flow: FlowResult) -> PowerIncidence:
    """The flow's :class:`PowerIncidence`, built on first use.

    Kept on ``flow.timing`` as ``_power_incidence``, a derived slot the
    timing analyzer drops when pickling, so a cached flow never stores it
    and an unpickled one rebuilds it only when a power model needs it.
    """
    incidence = getattr(flow.timing, "_power_incidence", None)
    if incidence is None:
        incidence = _build_incidence(flow)
        flow.timing._power_incidence = incidence
    return incidence


class PowerModel:
    """Evaluates the per-tile power vector for a placed-and-routed design."""

    def __init__(
        self,
        flow: FlowResult,
        fabric: Fabric,
        activity: ActivityEstimate,
    ):
        self.flow = flow
        self.fabric = fabric
        self.activity = activity
        self.n_tiles = flow.layout.n_tiles
        incidence = self._incidence = power_incidence(flow)
        self._counts = incidence.counts

        # Activity matrix: alpha_sum[resource, tile] = total switching
        # activity of that resource's users on that tile, so dynamic power
        # at any frequency is one matrix product (hot-loop fast path).
        # bincount adds each bin's users in input order, as the seed's
        # per-resource np.add.at did, so the sums match bit for bit.
        alpha = np.asarray(activity.alpha, dtype=float)
        self._user_alphas = np.concatenate(
            [alpha[incidence.nets], incidence.block_alphas(alpha)]
        )
        self._alpha_matrix = np.bincount(
            incidence.flat,
            weights=self._user_alphas,
            minlength=len(RESOURCES) * self.n_tiles,
        ).reshape(len(RESOURCES), self.n_tiles)
        # Per-instance dynamic power at the characterized base point.
        self._pdyn_base = np.array(
            [self.fabric.dynamic_power_w(name, 1.0, 1.0) for name in RESOURCES]
        )
        # Per-tile leakage table: _leak_table[tile, k] = total leakage of
        # the tile's inventory at characterization-grid temperature k, so
        # leakage at arbitrary per-tile temperatures is one gathered linear
        # interpolation.
        self._leak_table = self._counts.T @ np.vstack(
            [fabric.resources[name].leakage_w for name in RESOURCES]
        )

    @cached_property
    def _dyn_tiles(self) -> Dict[str, np.ndarray]:
        """Tile of each user, per resource (the seed layout; read only by
        :meth:`dynamic_power_reference`)."""
        resource, tiles = np.divmod(self._incidence.flat, self.n_tiles)
        return {name: tiles[resource == i] for i, name in enumerate(RESOURCES)}

    @cached_property
    def _dyn_alphas(self) -> Dict[str, np.ndarray]:
        """Activity of each user, per resource, aligned with ``_dyn_tiles``."""
        resource = self._incidence.flat // self.n_tiles
        return {
            name: self._user_alphas[resource == i]
            for i, name in enumerate(RESOURCES)
        }

    # -- evaluation ----------------------------------------------------------

    def dynamic_power(self, frequency_hz: float) -> np.ndarray:
        """Per-tile dynamic power at the given clock frequency, watts."""
        if frequency_hz < 0.0:
            raise ValueError(f"negative frequency: {frequency_hz}")
        return self.dynamic_power_batch(np.array([frequency_hz], dtype=float))[0]

    def dynamic_power_batch(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Per-tile dynamic power for a vector of clocks: ``(n_cells, n_tiles)``.

        The whole batch is one matrix product, so a row can differ from the
        same clock in a batch of another size by BLAS summation order.
        """
        frequencies_hz = np.asarray(frequencies_hz, dtype=float)
        if frequencies_hz.ndim != 1:
            raise ValueError(
                f"frequencies must be a 1-D vector, got shape "
                f"{frequencies_hz.shape}"
            )
        if (frequencies_hz < 0.0).any():
            raise ValueError("negative frequency in batch")
        scaled = frequencies_hz[:, None] * self._pdyn_base[None, :]
        return scaled @ self._alpha_matrix

    def dynamic_power_reference(self, frequency_hz: float) -> np.ndarray:
        """Seed per-resource-loop dynamic power (see repro.core.reference)."""
        if frequency_hz < 0.0:
            raise ValueError(f"negative frequency: {frequency_hz}")
        out = np.zeros(self.n_tiles)
        for name in RESOURCES:
            tiles = self._dyn_tiles[name]
            if len(tiles) == 0:
                continue
            base = self.fabric.dynamic_power_w(name, frequency_hz, 1.0)
            np.add.at(out, tiles, base * self._dyn_alphas[name])
        return out

    def _check_temps(self, t_tiles) -> np.ndarray:
        t_tiles = np.asarray(t_tiles, dtype=float)
        if t_tiles.ndim == 0:
            t_tiles = np.full(self.n_tiles, float(t_tiles))
        if len(t_tiles) != self.n_tiles:
            raise ValueError(
                f"temperature vector has {len(t_tiles)} entries, need "
                f"{self.n_tiles}"
            )
        return t_tiles

    def leakage_power(self, t_tiles: np.ndarray) -> np.ndarray:
        """Per-tile leakage power for a per-tile temperature vector, watts."""
        return self.leakage_power_batch(self._check_temps(t_tiles)[None])[0]

    def leakage_power_batch(self, t_batch: np.ndarray) -> np.ndarray:
        """Per-tile leakage for an ``(n_cells, n_tiles)`` temperature batch.

        One gathered linear interpolation over all cells, elementwise per
        cell, so a row does not depend on its batch-mates.
        """
        t_batch = np.asarray(t_batch, dtype=float)
        if t_batch.ndim != 2 or t_batch.shape[1] != self.n_tiles:
            raise ValueError(
                f"temperature batch shape {t_batch.shape} != "
                f"(n_cells, {self.n_tiles})"
            )
        return self._leak_lerp(self._leak_table, t_batch)

    def leakage_power_reference(self, t_tiles: np.ndarray) -> np.ndarray:
        """Seed per-resource-loop leakage power (see repro.core.reference)."""
        t_tiles = self._check_temps(t_tiles)
        out = np.zeros(self.n_tiles)
        for i, name in enumerate(RESOURCES):
            counts = self._counts[i]
            if not counts.any():
                continue
            out += counts * np.asarray(self.fabric.leakage_w(name, t_tiles))
        return out

    def evaluate(
        self, frequency_hz: float, t_tiles: np.ndarray
    ) -> PowerBreakdown:
        """Full per-tile power at one operating point (Algorithm 1 line 5)."""
        return PowerBreakdown(
            dynamic_w=self.dynamic_power(frequency_hz),
            leakage_w=self.leakage_power(t_tiles),
        )

    def evaluate_batch(
        self, frequencies_hz: np.ndarray, t_batch: np.ndarray
    ) -> PowerBreakdown:
        """Batched Algorithm 1 line 5: one breakdown row per sweep cell.

        ``frequencies_hz`` is ``(n_cells,)`` and ``t_batch`` is
        ``(n_cells, n_tiles)``; the returned breakdown holds
        ``(n_cells, n_tiles)`` arrays.
        """
        frequencies_hz = np.asarray(frequencies_hz, dtype=float)
        t_batch = np.asarray(t_batch, dtype=float)
        if frequencies_hz.shape != (t_batch.shape[0],):
            raise ValueError(
                f"frequency vector shape {frequencies_hz.shape} does not "
                f"match the {t_batch.shape[0]}-row temperature batch"
            )
        return PowerBreakdown(
            dynamic_w=self.dynamic_power_batch(frequencies_hz),
            leakage_w=self.leakage_power_batch(t_batch),
        )

    # -- voltage-scaled evaluation (energy-mode objective) -------------------

    @cached_property
    def _leak_split(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-tile leakage tables split by supply rail, built on first use.

        ``(scaled, fixed)`` — each ``(n_tiles, n_grid)`` like
        ``_leak_table`` — where ``scaled`` sums the soft-fabric-rail
        inventory (subject to voltage scaling) and ``fixed`` the BRAM-rail
        inventory (exempt).  ``scaled + fixed == _leak_table`` exactly.
        """
        rows = np.vstack([self.fabric.resources[name].leakage_w for name in RESOURCES])
        scaled_counts = np.where(_FIXED_RAIL_MASK[:, None], 0.0, self._counts)
        fixed_counts = self._counts - scaled_counts
        return scaled_counts.T @ rows, fixed_counts.T @ rows

    @staticmethod
    def _leak_lerp(table: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Gathered per-tile lerp of a ``(n_tiles, n_grid)`` leakage table
        at an ``(n_cells, n_tiles)`` temperature batch."""
        i0, i1, frac = grid_lerp(t)
        rows = np.arange(table.shape[0])
        return table[rows, i0] * (1.0 - frac) + table[rows, i1] * frac

    def leakage_power_scaled(
        self, t_batch: np.ndarray, scale_batch: np.ndarray
    ) -> np.ndarray:
        """Per-tile leakage with soft-fabric-rail scale factors applied.

        Both arguments are ``(n_cells, n_tiles)``.  ``scale_batch``
        multiplies only the scaled-rail inventory; the BRAM rail
        contributes unscaled.  ``scale_batch == 1`` reproduces
        :meth:`leakage_power_batch` up to summation order.
        """
        scaled_table, fixed_table = self._leak_split
        return (
            self._leak_lerp(scaled_table, t_batch) * scale_batch
            + self._leak_lerp(fixed_table, t_batch)
        )

    def evaluate_at_voltage(
        self,
        frequency_hz: float,
        t_tiles: np.ndarray,
        scaling: VoltageScaling,
        vdd: float,
    ) -> PowerBreakdown:
        """Per-tile power at a scaled soft-fabric supply (energy mode).

        Dynamic power picks up ``(vdd / vdd_nominal)^2`` on every
        scaled-rail resource; leakage picks up the temperature-dependent
        ``V * I_leak`` ratio per tile.  BRAM-rail contributions are exempt
        (see :mod:`repro.power.voltage`).  At ``vdd == vdd_nominal`` both
        factors are identically 1.
        """
        if frequency_hz < 0.0:
            raise ValueError(f"negative frequency: {frequency_hz}")
        power = self._evaluate_at_voltage(
            np.array([frequency_hz], dtype=float),
            self._check_temps(t_tiles)[None],
            scaling,
            np.array([vdd], dtype=float),
        )
        return PowerBreakdown(
            dynamic_w=power.dynamic_w[0], leakage_w=power.leakage_w[0]
        )

    def evaluate_at_voltage_batch(
        self,
        frequencies_hz: np.ndarray,
        t_batch: np.ndarray,
        scaling: VoltageScaling,
        vdds: np.ndarray,
    ) -> PowerBreakdown:
        """Batched :meth:`evaluate_at_voltage` with per-cell supplies."""
        frequencies_hz = np.asarray(frequencies_hz, dtype=float)
        t_batch = np.asarray(t_batch, dtype=float)
        vdds = np.asarray(vdds, dtype=float)
        if frequencies_hz.shape != (t_batch.shape[0],):
            raise ValueError(
                f"frequency vector shape {frequencies_hz.shape} does not "
                f"match the {t_batch.shape[0]}-row temperature batch"
            )
        if vdds.shape != (t_batch.shape[0],):
            raise ValueError(
                f"supply vector shape {vdds.shape} does not match the "
                f"{t_batch.shape[0]}-row temperature batch"
            )
        if (frequencies_hz < 0.0).any():
            raise ValueError("negative frequency in batch")
        return self._evaluate_at_voltage(frequencies_hz, t_batch, scaling, vdds)

    def _evaluate_at_voltage(
        self,
        frequencies_hz: np.ndarray,
        t_batch: np.ndarray,
        scaling: VoltageScaling,
        vdds: np.ndarray,
    ) -> PowerBreakdown:
        """The voltage-scaled power kernel over ``(n_cells, n_tiles)`` rows."""
        dyn_scales = np.array([scaling.dynamic_scale(v) for v in vdds.tolist()])
        res_scale = np.where(
            _FIXED_RAIL_MASK[None, :], 1.0, dyn_scales[:, None]
        )
        dynamic = (
            frequencies_hz[:, None] * self._pdyn_base[None, :] * res_scale
        ) @ self._alpha_matrix
        leakage = self.leakage_power_scaled(
            t_batch, scaling.leakage_scale_cells(vdds, t_batch)
        )
        return PowerBreakdown(dynamic_w=dynamic, leakage_w=leakage)
