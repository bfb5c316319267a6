"""The :class:`Fabric` — a fully characterized FPGA device at one design corner.

A Fabric answers, for every resource type and any junction temperature in
the supported 0..100 Celsius range:

- ``delay_s(resource, T)`` — propagation delay (drives the temperature-aware
  STA of :mod:`repro.cad.timing`),
- ``leakage_w(resource, T)`` — static power (drives the power model),
- ``dynamic_power_w(resource, f, alpha)`` — dynamic power,
- ``area_um2(resource)``,
- ``cp_delay_s(T)`` — the paper's *representative critical path*: a weighted
  average of the soft resources by their occurrence probability on real
  critical paths (paper Fig. 1).

Fabrics at different corners are the subject of the paper's thermal-aware
design study (Figs. 2-3) and architecture proposal (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arch.params import ArchParams
from repro.coffe.characterize import (
    CORNER_MEMO_SIZE,
    RESOURCE_NAMES,
    ResourceCharacterization,
    TABLE2,
    T_GRID_CELSIUS,
    characterize_fabric,
)
from repro.memo import Memo

ResourceType = str
"""Resource identifier: one of ``repro.coffe.characterize.RESOURCE_NAMES``."""

CP_WEIGHTS: Dict[str, float] = {
    "sb_mux": 0.55,
    "cb_mux": 0.17,
    "lut": 0.11,
    "local_mux": 0.09,
    "output_mux": 0.05,
    "feedback_mux": 0.03,
}
"""Occurrence weight of each soft resource on a representative critical path
(routing-dominated, as in real designs — paper Fig. 1 / footnote [23])."""

BASE_FREQUENCY_HZ = 100e6
T_MIN_CELSIUS = 0.0
T_MAX_CELSIUS = 100.0


def check_junction_celsius(t_celsius: float, what: str) -> None:
    """Reject a temperature outside the characterized junction range.

    Every lookup clips to the range, so a temperature outside it would
    silently read the edge of the tables.
    """
    if not (T_MIN_CELSIUS <= t_celsius <= T_MAX_CELSIUS):
        raise ValueError(
            f"{what} {t_celsius!r} C outside the fabric's "
            f"[{T_MIN_CELSIUS:g}, {T_MAX_CELSIUS:g}] C junction range"
        )


def grid_lerp(t_celsius: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Clipped ``(i0, i1, frac)`` of temperatures on ``T_GRID_CELSIUS``.

    A table sampled on the canonical 1 C grid interpolates at ``t_celsius``
    as ``y[i0] * (1.0 - frac) + y[i1] * frac`` (each caller gathers along
    its own axes).  Every :class:`Fabric` resource is characterized on that
    grid, so grid index and temperature coincide.
    """
    t = np.clip(t_celsius, T_MIN_CELSIUS, T_MAX_CELSIUS)
    i0 = t.astype(np.intp)
    frac = t - i0
    i1 = np.minimum(i0 + 1, T_GRID_CELSIUS.size - 1)
    return i0, i1, frac


@dataclass
class Fabric:
    """Characterized FPGA device optimized for one temperature corner."""

    corner_celsius: float
    arch: ArchParams
    resources: Dict[str, ResourceCharacterization]
    label: str = ""

    def __post_init__(self) -> None:
        missing = set(RESOURCE_NAMES) - set(self.resources)
        if missing:
            raise ValueError(f"fabric missing resources: {sorted(missing)}")
        for name, char in self.resources.items():
            if not np.array_equal(char.t_grid_celsius, T_GRID_CELSIUS):
                raise ValueError(
                    f"resource {name!r} is not characterized on the canonical "
                    f"0..100 C grid in 1 C steps (T_GRID_CELSIUS)"
                )
        if not self.label:
            self.label = f"D{self.corner_celsius:g}"

    # -- queries -------------------------------------------------------------

    def delay_s(self, resource: ResourceType, t_celsius) -> np.ndarray:
        """Delay of a resource at the given temperature(s), seconds."""
        char = self._resource(resource)
        t = np.clip(t_celsius, T_MIN_CELSIUS, T_MAX_CELSIUS)
        return char.delay_at(t)

    def leakage_w(self, resource: ResourceType, t_celsius) -> np.ndarray:
        """Static power of one resource instance at temperature(s), watts."""
        char = self._resource(resource)
        t = np.clip(t_celsius, T_MIN_CELSIUS, T_MAX_CELSIUS)
        return char.leakage_at(t)

    def dynamic_power_w(
        self, resource: ResourceType, frequency_hz: float, activity: float
    ) -> float:
        """Dynamic power of one instance at frequency and activity, watts.

        Linear scaling from the characterized 100 MHz / alpha=1 base point
        (``p = 1/2 alpha C V^2 f``, paper Sec. IV-A).
        """
        if frequency_hz < 0.0 or activity < 0.0:
            raise ValueError("frequency and activity must be non-negative")
        base = self._resource(resource).pdyn_w_base
        return base * (frequency_hz / BASE_FREQUENCY_HZ) * activity

    def area_um2(self, resource: ResourceType) -> float:
        return self._resource(resource).area_um2

    def cp_delay_s(self, t_celsius) -> np.ndarray:
        """Representative soft-fabric critical-path delay, seconds."""
        t = np.clip(t_celsius, T_MIN_CELSIUS, T_MAX_CELSIUS)
        total = None
        for name, weight in CP_WEIGHTS.items():
            part = self._resource(name).delay_at(t) * weight
            total = part if total is None else total + part
        return total

    def delay_increase_fraction(self, resource_or_cp: str, t_celsius) -> np.ndarray:
        """Fractional delay increase relative to 0 Celsius (paper Fig. 1)."""
        if resource_or_cp == "cp":
            d = self.cp_delay_s(t_celsius)
            d0 = self.cp_delay_s(0.0)
        else:
            d = self.delay_s(resource_or_cp, t_celsius)
            d0 = self.delay_s(resource_or_cp, 0.0)
        return d / d0 - 1.0

    def _resource(self, resource: ResourceType) -> ResourceCharacterization:
        try:
            return self.resources[resource]
        except KeyError:
            known = ", ".join(sorted(self.resources))
            raise KeyError(
                f"unknown resource {resource!r}; known resources: {known}"
            ) from None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_published_table2(cls, arch: Optional[ArchParams] = None) -> "Fabric":
        """The paper's published 25 C-corner characterization (Table II).

        Builds the fabric directly from the published fits instead of the
        sizing flow — useful as a reference and in tests.
        """
        arch = arch or ArchParams()
        resources: Dict[str, ResourceCharacterization] = {}
        for name, row in TABLE2.items():
            grid = T_GRID_CELSIUS
            delays = (
                row.delay_intercept_ps + row.delay_slope_ps_per_c * grid
            ) * 1e-12
            leaks = np.array([row.plkg_fit(t) for t in grid]) * 1e-6
            resources[name] = ResourceCharacterization(
                name=name,
                corner_celsius=25.0,
                sizes={},
                t_grid_celsius=grid.copy(),
                delay_s=delays,
                leakage_w=leaks,
                area_um2=row.area_um2,
                pdyn_w_base=row.pdyn_uw * 1e-6,
            )
        return cls(25.0, arch, resources, label="D25-published")


_fabrics: Memo[Fabric] = Memo("coffe.fabric.memo", CORNER_MEMO_SIZE)


def build_fabric(
    corner_celsius: float,
    arch: Optional[ArchParams] = None,
) -> Fabric:
    """Size and characterize a fabric at a design-corner temperature.

    This is the main entry point of the COFFE layer.  Results are cached per
    (architecture, corner) because sizing plus the 1-degree characterization
    sweep is the most expensive part of the stack.
    """
    check_junction_celsius(corner_celsius, "design corner")
    arch = arch or ArchParams()
    return _fabrics.get(
        (arch, corner_celsius),
        lambda: Fabric(
            corner_celsius, arch, characterize_fabric(arch, corner_celsius)
        ),
    )
