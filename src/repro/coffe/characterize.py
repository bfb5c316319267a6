"""Fabric characterization: delay(T), leakage(T), dynamic power and area.

Mirrors the paper's Sec. IV-A flow: size every resource at the design-corner
temperature, then sweep the junction temperature 0..100 Celsius in 1-degree
steps and fit the observed behaviour (Table II reports linear delay fits and
exponential leakage fits obtained exactly this way).

Calibration: the analytical device model produces the right *shapes* but its
absolute scale is not HSPICE-on-PTM.  We therefore calibrate one
multiplicative factor per resource and per quantity (delay, area, leakage,
dynamic power) such that the **25 C-corner fabric evaluated at 25 C** matches
the paper's published Table II characterization.  The same frozen factors
are applied to every other design corner, so corner-to-corner differences
(paper Figs. 2-3) and temperature behaviour are genuine model outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro import observe
from repro.arch.params import ArchParams
from repro.coffe.bram import BramModel
from repro.coffe.dsp import DspModel
from repro.coffe.sizing import (
    SizingResult,
    size_subcircuit,
    size_subcircuit_budgeted,
)
from repro.coffe.subcircuits import SizableCircuit, soft_fabric_circuits
from repro.memo import memoized
from repro.technology.temperature import celsius_to_kelvin

T_GRID_CELSIUS = np.arange(0.0, 101.0, 1.0)
"""Characterization sweep: 0..100 C in 1 C steps (paper Sec. IV-A)."""

BASE_FREQUENCY_HZ = 100e6
"""Dynamic power is reported at 100 MHz and alpha = 1 (paper Table II)."""

RESOURCE_NAMES = (
    "sb_mux",
    "cb_mux",
    "local_mux",
    "feedback_mux",
    "output_mux",
    "lut",
    "bram",
    "dsp",
)


@dataclass(frozen=True)
class Table2Row:
    """Published Table II entry for one resource."""

    area_um2: float
    delay_intercept_ps: float
    delay_slope_ps_per_c: float
    pdyn_uw: float
    plkg_fit: Callable[[float], float]
    """Published leakage fit, microwatts as a function of Celsius."""

    def delay_ps(self, t_celsius: float) -> float:
        return self.delay_intercept_ps + self.delay_slope_ps_per_c * t_celsius


TABLE2: Dict[str, Table2Row] = {
    "sb_mux": Table2Row(2.8, 166.0, 0.67, 5.74, lambda t: 0.28 * math.exp(0.014 * t)),
    "cb_mux": Table2Row(5.7, 112.0, 0.70, 0.64, lambda t: 0.26 * math.exp(0.014 * t)),
    "local_mux": Table2Row(1.2, 65.0, 0.35, 0.15, lambda t: 0.06 * math.exp(0.015 * t)),
    "feedback_mux": Table2Row(
        0.9, 100.0, 0.54, 0.63, lambda t: 0.23 * math.exp(0.014 * t)
    ),
    "output_mux": Table2Row(
        0.6, 31.0, 0.17, 0.30, lambda t: 0.24 * math.exp(0.014 * t)
    ),
    "lut": Table2Row(33.0, 163.0, 1.40, 1.60, lambda t: 2.5 * math.exp(0.015 * t)),
    "bram": Table2Row(7811.0, 902.0, 6.74, 6.85, lambda t: 6.2 + (t / 70.0) ** 2),
    "dsp": Table2Row(5338.0, 547.0, 4.42, 879.0, lambda t: 24.4 * math.exp(0.01 * t)),
}

SOFT_TILE_AREA_UM2 = 1196.0
"""Area of one full soft-fabric tile (paper Sec. IV-A)."""


@dataclass
class ResourceCharacterization:
    """Characterized behaviour of one sized resource across temperature."""

    name: str
    corner_celsius: float
    sizes: Dict[str, float]
    t_grid_celsius: np.ndarray
    delay_s: np.ndarray
    """Delay at each grid temperature, seconds."""
    leakage_w: np.ndarray
    """Static power at each grid temperature, watts."""
    area_um2: float
    pdyn_w_base: float
    """Dynamic power at 100 MHz, alpha = 1, watts."""

    def delay_fit(self) -> Tuple[float, float]:
        """Least-squares linear fit ``(intercept_s, slope_s_per_c)``."""
        slope, intercept = np.polyfit(self.t_grid_celsius, self.delay_s, 1)
        return float(intercept), float(slope)

    def leakage_fit(self) -> Tuple[float, float]:
        """Exponential fit ``leak(T) = c * exp(k T)`` as ``(c_watts, k)``."""
        log_leak = np.log(self.leakage_w)
        k, log_c = np.polyfit(self.t_grid_celsius, log_leak, 1)
        return float(math.exp(log_c)), float(k)

    def delay_at(self, t_celsius) -> np.ndarray:
        """Interpolated delay at arbitrary temperatures, seconds."""
        return np.interp(t_celsius, self.t_grid_celsius, self.delay_s)

    def leakage_at(self, t_celsius) -> np.ndarray:
        """Interpolated leakage at arbitrary temperatures, watts."""
        return np.interp(t_celsius, self.t_grid_celsius, self.leakage_w)


def build_circuits(
    arch: ArchParams, corner_celsius: float
) -> Dict[str, SizableCircuit]:
    """Instantiate all Table II resources for a given design corner."""
    circuits: Dict[str, SizableCircuit] = dict(soft_fabric_circuits(arch))
    circuits["bram"] = BramModel(
        "bram",
        arch.vdd_low_power,
        design_corner_kelvin=celsius_to_kelvin(corner_celsius),
        n_rows=arch.bram_rows,
        n_cols=arch.bram_width_bits,
    )
    circuits["dsp"] = DspModel("dsp", arch.vdd)
    return circuits


REFERENCE_CORNER_CELSIUS = 25.0
"""Corner fixing the per-resource area budget and the reference sizing."""

AREA_BUDGET_HEADROOM = 1.30
"""Family floorplan slack over the reference area-delay-product sizing.

Real tile floorplans leave headroom over the lean ADP optimum; the corner
optimizer may spend it (e.g. on transmission-gate topologies or larger
drivers) where the corner temperature justifies it."""

ARCH_MEMO_SIZE = 8
"""Architectures whose reference sizing and calibration a process keeps:
workloads use one and the tests a handful; an entry is a few kB."""

CORNER_MEMO_SIZE = 16
"""(arch, corner) pairs whose raw characterization and fabric a process
keeps: six candidate corners at two architectures; about 20 kB each."""


@memoized("coffe.budget.memo", ARCH_MEMO_SIZE)
def reference_sizings(arch: ArchParams) -> Dict[str, SizingResult]:
    """Area-delay-product sizing of every resource at the reference corner.

    Fixes the common silicon (area) budget all corner fabrics must respect —
    the floorplan of a device family does not change between grades.  Cached
    per architecture.
    """
    return {
        name: size_subcircuit(circuit, celsius_to_kelvin(REFERENCE_CORNER_CELSIUS))
        for name, circuit in build_circuits(arch, REFERENCE_CORNER_CELSIUS).items()
    }


def corner_sizing(
    arch: ArchParams, circuit: SizableCircuit, corner_celsius: float
) -> Tuple[SizableCircuit, SizingResult]:
    """Minimum-delay sizing of a resource at a corner under the area budget.

    Every topology variant of the circuit (e.g. NMOS-pass vs.
    transmission-gate muxes) is sized under the common budget; the variant
    fastest *at the corner* wins — the corner decides the topology, exactly
    as it decides the widths.
    """
    ref = reference_sizings(arch)[circuit.name]
    best: Optional[Tuple[SizableCircuit, SizingResult]] = None
    for variant in circuit.variants():
        try:
            sizing = size_subcircuit_budgeted(
                variant,
                celsius_to_kelvin(corner_celsius),
                area_budget_um2=ref.area_um2 * AREA_BUDGET_HEADROOM,
                initial_sizes=ref.sizes,
            )
        except ValueError:
            # Variant cannot fit the family floorplan even at minimum
            # widths (e.g. a transmission-gate mux under a tight budget).
            continue
        if best is None or sizing.delay_seconds < best[1].delay_seconds:
            best = (variant, sizing)
    if best is None:
        raise ValueError(
            f"{circuit.name}: no topology variant fits the "
            f"{ref.area_um2:.3g} um2 area budget at corner {corner_celsius} C"
        )
    return best


def characterize_resource(
    circuit: SizableCircuit,
    corner_celsius: float,
    sizing: SizingResult,
) -> ResourceCharacterization:
    """Sweep a sized resource across the temperature grid (raw units)."""
    sizes = sizing.sizes
    delays = np.array(
        [
            circuit.delay_seconds(sizes, celsius_to_kelvin(t))
            for t in T_GRID_CELSIUS
        ]
    )
    leaks = np.array(
        [
            circuit.leakage_watts(sizes, celsius_to_kelvin(t))
            for t in T_GRID_CELSIUS
        ]
    )
    c_sw = circuit.switched_cap_farads(sizes)
    pdyn = 0.5 * c_sw * circuit.vdd**2 * BASE_FREQUENCY_HZ
    return ResourceCharacterization(
        name=circuit.name,
        corner_celsius=corner_celsius,
        sizes=dict(sizes),
        t_grid_celsius=T_GRID_CELSIUS.copy(),
        delay_s=delays,
        leakage_w=leaks,
        area_um2=circuit.area_um2(sizes),
        pdyn_w_base=pdyn,
    )


@memoized("coffe.raw.memo", CORNER_MEMO_SIZE)
def raw_characterization(
    arch: ArchParams, corner_celsius: float
) -> Dict[str, ResourceCharacterization]:
    """Every resource sized at the corner and swept, in raw model units.

    Cached per (architecture, corner): the 25 C one feeds both the
    calibration and the 25 C fabric, so a cold D25 build sizes each
    resource once.  The mapping is shared: treat it as read-only
    (:func:`characterize_fabric` hands out copies).
    """
    raw: Dict[str, ResourceCharacterization] = {}
    for name, circuit in build_circuits(arch, corner_celsius).items():
        variant, sizing = corner_sizing(arch, circuit, corner_celsius)
        raw[name] = characterize_resource(variant, corner_celsius, sizing)
    return raw


@dataclass(frozen=True)
class CalibrationScales:
    """Per-resource multiplicative calibration factors (see module docstring)."""

    delay: Mapping[str, float]
    area: Mapping[str, float]
    leakage: Mapping[str, float]
    pdyn: Mapping[str, float]


@memoized("coffe.calibration.memo", ARCH_MEMO_SIZE)
def calibration_scales(arch: ArchParams) -> CalibrationScales:
    """Calibration factors anchoring the 25 C corner to paper Table II.

    Computed once per architecture and cached: characterize the raw model at
    the 25 C corner and take the ratio to the published Table II values at
    25 C.
    """
    delay_scales: Dict[str, float] = {}
    area_scales: Dict[str, float] = {}
    leak_scales: Dict[str, float] = {}
    pdyn_scales: Dict[str, float] = {}
    for name, raw in raw_characterization(arch, 25.0).items():
        target = TABLE2[name]
        raw_d25 = float(raw.delay_at(25.0))
        raw_l25 = float(raw.leakage_at(25.0))
        delay_scales[name] = target.delay_ps(25.0) * 1e-12 / raw_d25
        area_scales[name] = target.area_um2 / raw.area_um2
        leak_scales[name] = target.plkg_fit(25.0) * 1e-6 / raw_l25
        pdyn_scales[name] = target.pdyn_uw * 1e-6 / raw.pdyn_w_base
    return CalibrationScales(delay_scales, area_scales, leak_scales, pdyn_scales)


def characterize_fabric(
    arch: ArchParams, corner_celsius: float
) -> Dict[str, ResourceCharacterization]:
    """Characterize every resource of a fabric sized at ``corner_celsius``.

    The per-resource calibration factors anchored at the 25 C corner are
    applied, yielding Table II units (:func:`raw_characterization` holds
    the uncalibrated model).  The result is the caller's own: nothing in
    it is shared with a memo.
    """
    with observe.span("coffe.characterize", corner=corner_celsius):
        scales = calibration_scales(arch)
        return {
            name: replace(
                char,
                sizes=dict(char.sizes),
                t_grid_celsius=char.t_grid_celsius.copy(),
                delay_s=char.delay_s * scales.delay[name],
                leakage_w=char.leakage_w * scales.leakage[name],
                area_um2=char.area_um2 * scales.area[name],
                pdyn_w_base=char.pdyn_w_base * scales.pdyn[name],
            )
            for name, char in raw_characterization(arch, corner_celsius).items()
        }
