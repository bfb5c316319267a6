"""Steady-state grid thermal simulation (HotSpot 6.0 stand-in)."""

from repro.thermal.package import ThermalPackage
from repro.thermal.hotspot import ThermalSolver

__all__ = [
    "ThermalPackage",
    "ThermalSolver",
]
