"""Monte-Carlo threshold-voltage variation analysis.

COFFE's BRAM optimization needs the leakage current of the *weakest* SRAM
cell at the target temperature (paper Sec. IV-A, following Yazdanshenas et
al.).  We reproduce that by sampling per-transistor Vth from a normal
distribution and evaluating the standby leakage of each sampled 6T cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.spice.devices import leakage_current, off_current
from repro.technology.ptm22 import DeviceParams

SRAM_VTH_SIGMA = 0.025
"""Default Vth standard deviation for minimum-size SRAM devices, volts."""


@dataclass
class SramLeakageSample:
    """Leakage statistics over a Monte-Carlo population of SRAM cells."""

    mean_amps: float
    weakest_amps: float
    """Leakage of the leakiest (weakest) sampled cell."""
    n_cells: int
    t_kelvin: float


def sram_cell_leakage(
    nmos: DeviceParams,
    pmos: DeviceParams,
    vdd: float,
    t_kelvin: float,
    vth_shift_n: float = 0.0,
    vth_shift_p: float = 0.0,
    width_n: float = 1.0,
    width_p: float = 1.0,
    include_gate: bool = False,
) -> float:
    """Standby leakage of one 6T SRAM cell, amperes.

    In standby (wordline low, cell holding a value) three devices are off and
    leak: one pull-down NMOS, one pull-up PMOS and one access NMOS; the
    complementary devices are on and drop no leakage of their own.

    ``include_gate=False`` (default) returns the channel (subthreshold)
    component only — the quantity that erodes bitline swing and drives sense
    margins.  ``include_gate=True`` adds gate/junction leakage, for power
    accounting.
    """
    current = leakage_current if include_gate else off_current
    vth_n = max(nmos.vth0 + vth_shift_n, 1e-3)
    vth_p = max(pmos.vth0 + vth_shift_p, 1e-3)
    i_pull_down = current(nmos, vdd, width_n, t_kelvin, vth_n)
    i_pull_up = current(pmos, vdd, width_p, t_kelvin, vth_p)
    i_access = current(nmos, vdd, width_n, t_kelvin, vth_n)
    return i_pull_down + i_pull_up + i_access


def sram_weakest_cell_leakage(
    nmos: DeviceParams,
    pmos: DeviceParams,
    vdd: float,
    t_kelvin: float,
    n_cells: int = 2000,
    vth_sigma: float = SRAM_VTH_SIGMA,
    seed: int = 2019,
) -> SramLeakageSample:
    """Monte-Carlo leakage of an ``n_cells`` SRAM array at ``t_kelvin``.

    Returns the mean and the weakest-cell (maximum) leakage; the weakest-cell
    value feeds BRAM sizing in :mod:`repro.coffe.bram`.

    ``seed`` is a required integer: the sample feeds BRAM transistor
    sizing, so the whole characterization must be reproducible — an
    OS-seeded draw here would make two runs of the same flow size
    different fabrics.
    """
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    if seed is None or not isinstance(seed, (int, np.integer)):
        raise TypeError(
            f"seed must be an explicit integer (got {seed!r}); the "
            "Monte-Carlo population must be reproducible per flow run"
        )
    rng = np.random.default_rng(seed)
    shifts_n = rng.normal(0.0, vth_sigma, size=n_cells)
    shifts_p = rng.normal(0.0, vth_sigma, size=n_cells)
    leakages = np.array(
        [
            sram_cell_leakage(nmos, pmos, vdd, t_kelvin, dn, dp)
            for dn, dp in zip(shifts_n, shifts_p)
        ]
    )
    return SramLeakageSample(
        mean_amps=float(leakages.mean()),
        weakest_amps=float(leakages.max()),
        n_cells=n_cells,
        t_kelvin=t_kelvin,
    )
