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
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.activity.ace import ActivityEstimate
from repro.arch.layout import TileType
from repro.arch.params import ArchParams
from repro.cad.flow import FlowResult
from repro.coffe.characterize import T_GRID_CELSIUS
from repro.coffe.fabric import Fabric, T_MAX_CELSIUS, T_MIN_CELSIUS
from repro.netlists.netlist import BlockType
from repro.power.voltage import FIXED_RAIL_RESOURCES, VoltageScaling

RESOURCES = (
    "sb_mux", "cb_mux", "local_mux", "feedback_mux", "output_mux",
    "lut", "bram", "dsp",
)
_RES_INDEX = {name: i for i, name in enumerate(RESOURCES)}

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
        layout = flow.layout
        self.n_tiles = layout.n_tiles

        # Leakage inventory matrix: counts[resource, tile].
        self._counts = np.zeros((len(RESOURCES), self.n_tiles))
        for tile in layout.tiles():
            index = layout.tile_index(tile.x, tile.y)
            for name, count in tile_inventory(flow.arch, tile.type).items():
                self._counts[_RES_INDEX[name], index] = count

        # Dynamic users: (tile indices, activities) per resource.
        users: Dict[str, Tuple[List[int], List[float]]] = {
            name: ([], []) for name in RESOURCES
        }

        def add(resource: str, tile: int, alpha: float) -> None:
            tiles, alphas = users[resource]
            tiles.append(tile)
            alphas.append(alpha)

        timing = flow.timing
        for net_id, elements in timing.net_power_elements.items():
            alpha = activity.of_net(net_id)
            for resource, tile in elements:
                add(resource, tile, alpha)
        for (net_id, _sink), elements in timing.sink_elements.items():
            # Intra-tile feedback/local muxes are not in net_power_elements.
            if elements and elements[0][0] == "feedback_mux":
                alpha = activity.of_net(net_id)
                for resource, tile in elements:
                    add(resource, tile, alpha)
        for block in flow.netlist.blocks:
            tile = timing.block_tile[block.id]
            if block.output_nets:
                alpha = float(
                    np.mean([activity.of_net(n) for n in block.output_nets])
                )
            elif block.input_nets:
                alpha = float(
                    np.mean([activity.of_net(n) for n in block.input_nets])
                )
            else:
                alpha = 0.0
            if block.type == BlockType.LUT:
                add("lut", tile, alpha)
            elif block.type == BlockType.BRAM:
                add("bram", tile, alpha)
            elif block.type == BlockType.DSP:
                add("dsp", tile, alpha)

        self._dyn_tiles: Dict[str, np.ndarray] = {}
        self._dyn_alphas: Dict[str, np.ndarray] = {}
        for name, (tiles, alphas) in users.items():
            self._dyn_tiles[name] = np.asarray(tiles, dtype=int)
            self._dyn_alphas[name] = np.asarray(alphas)

        # Activity matrix: alpha_sum[resource, tile] = total switching
        # activity of that resource's users on that tile.  Dynamic power at
        # any frequency is then one matrix product (hot-loop fast path).
        self._alpha_matrix = np.zeros((len(RESOURCES), self.n_tiles))
        for i, name in enumerate(RESOURCES):
            tiles = self._dyn_tiles[name]
            if len(tiles):
                np.add.at(self._alpha_matrix[i], tiles, self._dyn_alphas[name])
        # Per-instance dynamic power at the characterized base point.
        self._pdyn_base = np.array(
            [self.fabric.dynamic_power_w(name, 1.0, 1.0) for name in RESOURCES]
        )
        # Resources with a non-zero leakage inventory anywhere on the die.
        self._leaky_rows = [
            i for i in range(len(RESOURCES)) if self._counts[i].any()
        ]
        # Per-tile leakage table: _leak_table[tile, k] = total leakage of
        # the tile's inventory at characterization-grid temperature k, so
        # leakage at arbitrary per-tile temperatures is one gathered linear
        # interpolation.  Only valid on the canonical 1 degC uniform grid.
        chars = [fabric.resources[name] for name in RESOURCES]
        if all(
            c.t_grid_celsius.shape == T_GRID_CELSIUS.shape
            and np.array_equal(c.t_grid_celsius, T_GRID_CELSIUS)
            for c in chars
        ):
            self._leak_table = self._counts.T @ np.vstack(
                [c.leakage_w for c in chars]
            )
        else:
            self._leak_table = None
        # Rail-split leakage tables for voltage scaling, built lazily by
        # _split_leak_tables(): (scaled soft-fabric rail, fixed BRAM rail).
        self._leak_split: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- evaluation ----------------------------------------------------------

    def dynamic_power(self, frequency_hz: float) -> np.ndarray:
        """Per-tile dynamic power at the given clock frequency, watts."""
        if frequency_hz < 0.0:
            raise ValueError(f"negative frequency: {frequency_hz}")
        return (self._pdyn_base * frequency_hz) @ self._alpha_matrix

    def dynamic_power_batch(self, frequencies_hz: np.ndarray) -> np.ndarray:
        """Per-tile dynamic power for a vector of clocks: ``(n_cells, n_tiles)``.

        Row ``c`` equals ``dynamic_power(frequencies_hz[c])`` up to BLAS
        summation order — the whole batch is one matrix product.
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
        t_tiles = self._check_temps(t_tiles)
        if self._leak_table is not None:
            table = self._leak_table
            t = np.clip(t_tiles, T_MIN_CELSIUS, T_MAX_CELSIUS)
            i0 = t.astype(np.intp)
            frac = t - i0
            i1 = np.minimum(i0 + 1, table.shape[1] - 1)
            rows = np.arange(self.n_tiles)
            return table[rows, i0] * (1.0 - frac) + table[rows, i1] * frac
        if not self._leaky_rows:
            return np.zeros(self.n_tiles)
        leaks = np.stack(
            [
                np.asarray(self.fabric.leakage_w(RESOURCES[i], t_tiles))
                for i in self._leaky_rows
            ]
        )
        return np.einsum("rt,rt->t", self._counts[self._leaky_rows], leaks)

    def leakage_power_batch(self, t_batch: np.ndarray) -> np.ndarray:
        """Per-tile leakage for an ``(n_cells, n_tiles)`` temperature batch.

        One gathered linear interpolation over all cells on the canonical
        grid; row ``c`` is bit-identical to ``leakage_power(t_batch[c])``.
        """
        t_batch = np.asarray(t_batch, dtype=float)
        if t_batch.ndim != 2 or t_batch.shape[1] != self.n_tiles:
            raise ValueError(
                f"temperature batch shape {t_batch.shape} != "
                f"(n_cells, {self.n_tiles})"
            )
        if self._leak_table is not None:
            table = self._leak_table
            t = np.clip(t_batch, T_MIN_CELSIUS, T_MAX_CELSIUS)
            i0 = t.astype(np.intp)
            frac = t - i0
            i1 = np.minimum(i0 + 1, table.shape[1] - 1)
            rows = np.arange(self.n_tiles)
            return table[rows, i0] * (1.0 - frac) + table[rows, i1] * frac
        return np.stack([self.leakage_power(t) for t in t_batch])

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

    def _split_leak_tables(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per-tile leakage tables split by supply rail, lazily built.

        Returns ``(scaled, fixed)`` — each ``(n_tiles, n_grid)`` like
        ``_leak_table`` — where ``scaled`` sums the soft-fabric-rail
        inventory (subject to voltage scaling) and ``fixed`` the BRAM-rail
        inventory (exempt).  ``scaled + fixed == _leak_table`` exactly.
        ``None`` off the canonical characterization grid.
        """
        if self._leak_table is None:
            return None
        if self._leak_split is None:
            chars = [self.fabric.resources[name] for name in RESOURCES]
            rows = np.vstack([c.leakage_w for c in chars])
            scaled_counts = np.where(
                _FIXED_RAIL_MASK[:, None], 0.0, self._counts
            )
            fixed_counts = self._counts - scaled_counts
            self._leak_split = (
                scaled_counts.T @ rows,
                fixed_counts.T @ rows,
            )
        return self._leak_split

    @staticmethod
    def _leak_lerp(table: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Gathered per-tile lerp of a ``(n_tiles, n_grid)`` leakage table.

        ``t`` is ``(n_tiles,)`` or ``(n_cells, n_tiles)``; the tile axis
        of ``t`` indexes the table rows either way.
        """
        t = np.clip(t, T_MIN_CELSIUS, T_MAX_CELSIUS)
        i0 = t.astype(np.intp)
        frac = t - i0
        i1 = np.minimum(i0 + 1, table.shape[1] - 1)
        rows = np.arange(table.shape[0])
        return table[rows, i0] * (1.0 - frac) + table[rows, i1] * frac

    def leakage_power_scaled(
        self, t_tiles: np.ndarray, scale_tiles: np.ndarray
    ) -> np.ndarray:
        """Per-tile leakage with soft-fabric-rail scale factors applied.

        ``scale_tiles`` multiplies only the scaled-rail inventory; the
        BRAM rail contributes unscaled.  ``scale_tiles == 1`` reproduces
        :meth:`leakage_power` up to summation order.  Accepts batched
        ``(n_cells, n_tiles)`` inputs symmetrically.
        """
        t = np.asarray(t_tiles, dtype=float)
        scale_tiles = np.asarray(scale_tiles, dtype=float)
        split = self._split_leak_tables()
        if split is not None:
            scaled_table, fixed_table = split
            return (
                self._leak_lerp(scaled_table, t) * scale_tiles
                + self._leak_lerp(fixed_table, t)
            )
        if t.ndim == 2:
            return np.stack(
                [
                    self.leakage_power_scaled(row, scale)
                    for row, scale in zip(t, scale_tiles)
                ]
            )
        out = np.zeros(self.n_tiles)
        for i, name in enumerate(RESOURCES):
            counts = self._counts[i]
            if not counts.any():
                continue
            leak = counts * np.asarray(self.fabric.leakage_w(name, t))
            out += leak if _FIXED_RAIL_MASK[i] else leak * scale_tiles
        return out

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
        t_tiles = self._check_temps(t_tiles)
        res_scale = np.where(
            _FIXED_RAIL_MASK, 1.0, scaling.dynamic_scale(vdd)
        )
        dynamic = (self._pdyn_base * frequency_hz * res_scale) @ self._alpha_matrix
        leakage = self.leakage_power_scaled(
            t_tiles, scaling.leakage_scale_tiles(vdd, t_tiles)
        )
        return PowerBreakdown(dynamic_w=dynamic, leakage_w=leakage)

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
