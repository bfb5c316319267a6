"""Seed (pre-vectorization) reference implementations of Algorithm 1's hot loop.

The PR that vectorized the guardband hot loop (flattened STA element
arrays, pre-factorized thermal solve, matrix-product power model) kept the
original pure-Python code paths alive as ``*_reference`` /
``*_unfactored`` methods.  :func:`seed_implementation` swaps them in
globally so the equivalence tests and the hot-loop benchmark can run the
*exact* seed algorithm against the same flow objects and compare both
results and wall time.

Each layer evaluates a single profile as a batch of one through one batched
kernel, so swapping four kernels for row-by-row loops over the seed methods
reroutes every STA, power and thermal call, single or batched, that the
frequency objective of Algorithm 1 makes: nothing it runs inside the block
reaches a vectorized path.  The energy objective's voltage-scaled power
(``evaluate_at_voltage_batch``, ``leakage_power_scaled``) has no seed path
and stays vectorized.  The replacements accept the grid weights the fast
kernels take as ``lerp=`` and ignore them: each seed method interpolates
on its own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np


@contextmanager
def seed_implementation() -> Iterator[None]:
    """Run everything inside the block on the seed (slow) code paths."""
    from repro.cad.timing import TimingAnalyzer
    from repro.coffe.fabric import Fabric
    from repro.power.model import PowerModel
    from repro.thermal.hotspot import ThermalSolver

    def arrivals(
        self: TimingAnalyzer,
        fabric: Fabric,
        t_batch: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
        *,
        lerp: Any = None,
    ) -> List[Tuple[np.ndarray, np.ndarray, Dict[int, float]]]:
        return [
            self._arrival_pass_reference(
                fabric, row, None if delay_scale is None else delay_scale[c]
            )
            for c, row in enumerate(t_batch)
        ]

    def solve(
        self: ThermalSolver, power_w: np.ndarray, t_ambient: Any
    ) -> np.ndarray:
        power_w = self._check_power(power_w)
        ambients = self._check_ambient(t_ambient, power_w.shape[0])
        return np.stack(
            [
                self.solve_unfactored(row, float(amb))
                for row, amb in zip(power_w, ambients)
            ]
        )

    def dynamic_power_batch(
        self: PowerModel, frequencies_hz: np.ndarray
    ) -> np.ndarray:
        return np.stack(
            [
                self.dynamic_power_reference(float(f))
                for f in np.asarray(frequencies_hz, dtype=float)
            ]
        )

    def leakage_power_batch(
        self: PowerModel, t_batch: np.ndarray, *, lerp: Any = None
    ) -> np.ndarray:
        return np.stack(
            [self.leakage_power_reference(row) for row in np.asarray(t_batch)]
        )

    patches = (
        (TimingAnalyzer, "_arrivals", arrivals),
        (ThermalSolver, "_solve", solve),
        (PowerModel, "dynamic_power_batch", dynamic_power_batch),
        (PowerModel, "leakage_power_batch", leakage_power_batch),
    )
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in patches]
    for cls, name, replacement in patches:
        setattr(cls, name, replacement)
    try:
        yield
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
