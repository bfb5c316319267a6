"""Supply-voltage scaling for the energy-mode objective.

The energy objective (arXiv:1911.07187, ROADMAP item 3) trades the
reclaimed thermal margin for a *lower supply* at iso-frequency, so the
delay and leakage models must be re-evaluated at every trial VDD.  This
module turns the scalar alpha-power-law device equations of
:mod:`repro.spice.devices` into cheap per-tile scale factors:

- **delay** scales with the switching resistance ratio
  ``(Rn(V, T) + Rp(V, T)) / (Rn(V0, T) + Rp(V0, T))`` of the HP device
  pair — the same ``Reff`` abstraction every characterized fabric delay
  was built from, so one multiplicative factor per (resource, tile)
  entry is exact up to the sizing constants, which cancel in the ratio;
- **dynamic** power scales as ``(V / V0)^2`` (CV^2f);
- **leakage** power scales as ``V * I_leak(V, T)`` relative to nominal.

All three are precomputed on the canonical 0..100 C characterization
grid once per trial voltage (the scalar device math is far too slow to
run per tile per iteration) and linearly interpolated at the per-tile
temperatures, mirroring the delay/leakage table lerps of the frequency
path.  Tables are cached per voltage because bisection revisits trial
supplies across sweep cells.

**BRAM rail exemption:** the BRAM core runs on its own boosted
``VDD_LOW_POWER`` rail (paper Table I), which voltage scaling of the
soft-fabric rail does not touch — BRAM delay, dynamic and leakage
contributions therefore stay unscaled (see ``FIXED_RAIL_RESOURCES``).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.coffe.characterize import RESOURCE_NAMES, T_GRID_CELSIUS
from repro.coffe.fabric import T_MAX_CELSIUS, T_MIN_CELSIUS
from repro.spice.devices import effective_resistance, leakage_current
from repro.technology.ptm22 import HP_NMOS, HP_PMOS, VDD_NOMINAL
from repro.technology.temperature import celsius_to_kelvin

VDD_MIN_V = 0.55
"""Floor of the energy-mode bisection window, volts.  Below ~0.55 V the
HP devices (Vth0 = 0.32 V) lose most of their overdrive and the
alpha-power model leaves its calibrated regime; the closing voltage is
clamped here rather than extrapolated."""

VDD_TOLERANCE_V = 0.005
"""Bisection convergence width, volts: the reported closing VDD is
within this of the true timing-closure boundary."""

FIXED_RAIL_RESOURCES = frozenset({"bram"})
"""Resources on the separate ``VDD_LOW_POWER`` rail, exempt from
soft-fabric voltage scaling."""

#: Per-resource selector in RESOURCE_NAMES order: 1.0 where the resource
#: rides the scaled soft-fabric rail, 0.0 on the fixed BRAM rail.
_SCALED_SEL = np.array(
    [0.0 if name in FIXED_RAIL_RESOURCES else 1.0 for name in RESOURCE_NAMES]
)


def resource_delay_scale(tile_scale: np.ndarray) -> np.ndarray:
    """Expand per-tile delay scales to the STA's per-resource layout.

    ``tile_scale`` is ``(n_tiles,)`` (or ``(n_cells, n_tiles)`` for a
    batch); the result gains a resource axis —
    ``(..., n_resources, n_tiles)`` in ``RESOURCE_NAMES`` order — with
    fixed-rail rows pinned at exactly 1.0, ready for the ``delay_scale``
    parameter of :meth:`repro.cad.timing.TimingAnalyzer.critical_path`.
    """
    tile_scale = np.asarray(tile_scale, dtype=float)
    return 1.0 + _SCALED_SEL[:, None] * (tile_scale[..., None, :] - 1.0)


def _lerp_grid(table: np.ndarray, t_celsius: np.ndarray) -> np.ndarray:
    """Interpolate a ``(101,)`` canonical-grid table at given temperatures."""
    t = np.clip(t_celsius, T_MIN_CELSIUS, T_MAX_CELSIUS)
    i0 = t.astype(np.intp)
    frac = t - i0
    i1 = np.minimum(i0 + 1, table.shape[0] - 1)
    return table[i0] * (1.0 - frac) + table[i1] * frac


class VoltageScaling:
    """Delay/power scale factors of the soft-fabric rail vs nominal VDD.

    One instance per energy-mode run; the per-voltage grid tables are
    cached on the instance, so a bisection that revisits a trial supply
    pays the scalar device math only once.
    """

    def __init__(self, vdd_nominal: float = VDD_NOMINAL) -> None:
        if not (0.0 < vdd_nominal < 2.0):
            raise ValueError(f"implausible nominal VDD: {vdd_nominal}")
        self.vdd_nominal = float(vdd_nominal)
        self._delay_tables: Dict[float, np.ndarray] = {}
        self._leak_tables: Dict[float, np.ndarray] = {}
        self._r_nominal = self._resistance_curve(self.vdd_nominal)
        self._vi_nominal = self._leakage_curve(self.vdd_nominal)

    @staticmethod
    def _check_vdd(vdd: float) -> float:
        vdd = float(vdd)
        if not (0.0 < vdd < 2.0):
            raise ValueError(f"implausible trial VDD: {vdd}")
        return vdd

    @staticmethod
    def _resistance_curve(vdd: float) -> np.ndarray:
        """HP pair switching resistance over the canonical grid, ohms."""
        return np.array(
            [
                effective_resistance(HP_NMOS, vdd, 1.0, celsius_to_kelvin(t))
                + effective_resistance(HP_PMOS, vdd, 1.0, celsius_to_kelvin(t))
                for t in T_GRID_CELSIUS
            ]
        )

    @staticmethod
    def _leakage_curve(vdd: float) -> np.ndarray:
        """HP pair static leakage *power* (V * I) over the grid, watts."""
        return vdd * np.array(
            [
                leakage_current(HP_NMOS, vdd, 1.0, celsius_to_kelvin(t))
                + leakage_current(HP_PMOS, vdd, 1.0, celsius_to_kelvin(t))
                for t in T_GRID_CELSIUS
            ]
        )

    # -- scale tables --------------------------------------------------------

    def delay_scale_table(self, vdd: float) -> np.ndarray:
        """``(101,)`` delay multiplier vs temperature at one trial supply."""
        vdd = self._check_vdd(vdd)
        table = self._delay_tables.get(vdd)
        if table is None:
            table = self._resistance_curve(vdd) / self._r_nominal
            self._delay_tables[vdd] = table
        return table

    def leakage_scale_table(self, vdd: float) -> np.ndarray:
        """``(101,)`` leakage-power multiplier vs temperature at one supply."""
        vdd = self._check_vdd(vdd)
        table = self._leak_tables.get(vdd)
        if table is None:
            table = self._leakage_curve(vdd) / self._vi_nominal
            self._leak_tables[vdd] = table
        return table

    def dynamic_scale(self, vdd: float) -> float:
        """CV^2f dynamic-power multiplier at one trial supply."""
        vdd = self._check_vdd(vdd)
        return (vdd / self.vdd_nominal) ** 2

    # -- per-tile evaluation -------------------------------------------------

    def delay_scale_tiles(self, vdd: float, t_tiles: np.ndarray) -> np.ndarray:
        """Per-tile delay multipliers at the tiles' own temperatures."""
        return _lerp_grid(self.delay_scale_table(vdd), np.asarray(t_tiles))

    def leakage_scale_tiles(
        self, vdd: float, t_tiles: np.ndarray
    ) -> np.ndarray:
        """Per-tile leakage-power multipliers at the tiles' temperatures."""
        return _lerp_grid(self.leakage_scale_table(vdd), np.asarray(t_tiles))

    def delay_scale_cells(
        self, vdds: np.ndarray, t_batch: np.ndarray
    ) -> np.ndarray:
        """``(n_cells, n_tiles)`` delay multipliers for per-cell supplies."""
        return self._cells(self.delay_scale_table, vdds, t_batch)

    def leakage_scale_cells(
        self, vdds: np.ndarray, t_batch: np.ndarray
    ) -> np.ndarray:
        """``(n_cells, n_tiles)`` leakage multipliers for per-cell supplies."""
        return self._cells(self.leakage_scale_table, vdds, t_batch)

    def _cells(
        self,
        table_of: Callable[[float], np.ndarray],
        vdds: np.ndarray,
        t_batch: np.ndarray,
    ) -> np.ndarray:
        t_batch = np.asarray(t_batch, dtype=float)
        vdds = np.asarray(vdds, dtype=float)
        if t_batch.ndim != 2 or vdds.shape != (t_batch.shape[0],):
            raise ValueError(
                f"per-cell supplies {vdds.shape} do not match the "
                f"{t_batch.shape} temperature batch"
            )
        out = np.empty_like(t_batch)
        for c, vdd in enumerate(vdds.tolist()):
            out[c] = _lerp_grid(table_of(vdd), t_batch[c])
        return out

    def scale_summary(self, vdd: float) -> Tuple[float, float, float]:
        """(delay, dynamic, leakage) multipliers at 25 C — for reporting."""
        return (
            float(self.delay_scale_table(vdd)[25]),
            self.dynamic_scale(vdd),
            float(self.leakage_scale_table(vdd)[25]),
        )
