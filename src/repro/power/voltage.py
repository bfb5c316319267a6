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
path.  The tables live in one bounded process-wide memo keyed on
(nominal, trial) supply, read-only, because every bisection of every
run walks the same dyadic trial supplies.

**BRAM rail exemption:** the BRAM core runs on its own boosted
``VDD_LOW_POWER`` rail (paper Table I), which voltage scaling of the
soft-fabric rail does not touch — BRAM delay, dynamic and leakage
contributions therefore stay unscaled (see ``FIXED_RAIL_RESOURCES``).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.coffe.characterize import RESOURCE_NAMES, T_GRID_CELSIUS
from repro.coffe.fabric import grid_lerp
from repro.memo import memoized
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


def _resistance_curve(vdd: float) -> np.ndarray:
    """HP pair switching resistance over the canonical grid, ohms."""
    return np.array(
        [
            effective_resistance(HP_NMOS, vdd, 1.0, celsius_to_kelvin(t))
            + effective_resistance(HP_PMOS, vdd, 1.0, celsius_to_kelvin(t))
            for t in T_GRID_CELSIUS
        ]
    )


def _leakage_curve(vdd: float) -> np.ndarray:
    """HP pair static leakage *power* (V * I) over the grid, watts."""
    return vdd * np.array(
        [
            leakage_current(HP_NMOS, vdd, 1.0, celsius_to_kelvin(t))
            + leakage_current(HP_PMOS, vdd, 1.0, celsius_to_kelvin(t))
            for t in T_GRID_CELSIUS
        ]
    )


SCALE_MEMO_SIZE = 256
"""Trial supplies whose scale tables (1.6 kB) a process keeps: a bisection
takes about six, so a sweep's few dozen fit."""


@memoized("power.scale_tables.memo", SCALE_MEMO_SIZE)
def _scale_tables(vdd_nominal: float, vdd: float) -> Tuple[np.ndarray, np.ndarray]:
    """Read-only ``(101,)`` (delay, leakage-power) multipliers of one trial
    supply vs nominal, shared by every :class:`VoltageScaling` in the
    process."""
    delay = _resistance_curve(vdd) / _resistance_curve(vdd_nominal)
    leakage = _leakage_curve(vdd) / _leakage_curve(vdd_nominal)
    delay.setflags(write=False)
    leakage.setflags(write=False)
    return delay, leakage


class VoltageScaling:
    """Delay/power scale factors of the soft-fabric rail vs nominal VDD.

    One instance per energy-mode run; the per-voltage grid tables are
    process-wide (:func:`_scale_tables`), paid once per trial supply.
    The instance keeps the pair of each supply it has asked for, so a
    run makes one memo lookup per distinct supply, although a re-time
    reads its delay table and a power evaluation its leakage table.
    """

    def __init__(self, vdd_nominal: float = VDD_NOMINAL) -> None:
        if not (0.0 < vdd_nominal < 2.0):
            raise ValueError(f"implausible nominal VDD: {vdd_nominal}")
        self.vdd_nominal = float(vdd_nominal)
        self._tables: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    @staticmethod
    def _check_vdd(vdd: float) -> float:
        vdd = float(vdd)
        if not (0.0 < vdd < 2.0):
            raise ValueError(f"implausible trial VDD: {vdd}")
        return vdd

    # -- scale tables --------------------------------------------------------

    def _tables_at(self, vdd: float) -> Tuple[np.ndarray, np.ndarray]:
        vdd = self._check_vdd(vdd)
        tables = self._tables.get(vdd)
        if tables is None:
            tables = self._tables[vdd] = _scale_tables(self.vdd_nominal, vdd)
        return tables

    def delay_scale_table(self, vdd: float) -> np.ndarray:
        """Read-only ``(101,)`` delay multiplier vs temperature at one
        trial supply."""
        return self._tables_at(vdd)[0]

    def leakage_scale_table(self, vdd: float) -> np.ndarray:
        """Read-only ``(101,)`` leakage-power multiplier vs temperature at
        one supply."""
        return self._tables_at(vdd)[1]

    def dynamic_scale(self, vdd: float) -> float:
        """CV^2f dynamic-power multiplier at one trial supply."""
        vdd = self._check_vdd(vdd)
        return (vdd / self.vdd_nominal) ** 2

    # -- per-tile evaluation -------------------------------------------------

    def delay_scale_tiles(self, vdd: float, t_tiles: np.ndarray) -> np.ndarray:
        """``(n_tiles,)`` delay multipliers at the tiles' own temperatures."""
        return self._cells(
            self.delay_scale_table, np.array([vdd]), np.asarray(t_tiles)[None]
        )[0]

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
        """Lerp each cell's grid table at that cell's tile temperatures."""
        t_batch = np.asarray(t_batch, dtype=float)
        vdds = np.asarray(vdds, dtype=float)
        if t_batch.ndim != 2 or vdds.shape != (t_batch.shape[0],):
            raise ValueError(
                f"per-cell supplies {vdds.shape} do not match the "
                f"{t_batch.shape} temperature batch"
            )
        tables = np.stack([table_of(vdd) for vdd in vdds.tolist()])
        i0, i1, frac = grid_lerp(t_batch)
        cells = np.arange(vdds.size)[:, None]
        return tables[cells, i0] * (1.0 - frac) + tables[cells, i1] * frac
