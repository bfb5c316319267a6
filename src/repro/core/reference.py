"""Seed (pre-vectorization) reference implementations of Algorithm 1's hot loop.

The PR that vectorized the guardband hot loop (flattened STA element
arrays, pre-factorized thermal solve, matrix-product power model) kept the
original pure-Python code paths alive as ``*_reference`` /
``*_unfactored`` methods.  :func:`seed_implementation` swaps them in
globally so the equivalence tests and the hot-loop benchmark can run the
*exact* seed algorithm against the same flow objects and compare both
results and wall time.

Algorithm 1 runs on batched ``(n_cells, n_tiles)`` rows, so the batched
entry points are swapped too, each for a row-by-row loop over the seed
method: nothing inside the block reaches a vectorized path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

import numpy as np


@contextmanager
def seed_implementation() -> Iterator[None]:
    """Run everything inside the block on the seed (slow) code paths."""
    from repro.cad.timing import TimingAnalyzer, TimingReport
    from repro.coffe.fabric import Fabric
    from repro.power.model import PowerModel
    from repro.thermal.hotspot import ThermalSolver

    def critical_path_batch(
        self: TimingAnalyzer,
        fabric: Fabric,
        t_batch: np.ndarray,
        delay_scale: Optional[np.ndarray] = None,
    ) -> List[TimingReport]:
        return [
            self.critical_path(
                fabric, row, None if delay_scale is None else delay_scale[c]
            )
            for c, row in enumerate(np.asarray(t_batch, dtype=float))
        ]

    def solve(
        self: ThermalSolver, power_w: np.ndarray, t_ambient: Any
    ) -> np.ndarray:
        power_w = np.asarray(power_w, dtype=float)
        if power_w.ndim != 2:
            return self.solve_unfactored(power_w, t_ambient)
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
        self: PowerModel, t_batch: np.ndarray
    ) -> np.ndarray:
        return np.stack(
            [self.leakage_power_reference(row) for row in np.asarray(t_batch)]
        )

    patches = (
        (TimingAnalyzer, "_arrival_pass", TimingAnalyzer._arrival_pass_reference),
        (TimingAnalyzer, "critical_path_batch", critical_path_batch),
        (ThermalSolver, "solve", solve),
        (PowerModel, "dynamic_power", PowerModel.dynamic_power_reference),
        (PowerModel, "dynamic_power_batch", dynamic_power_batch),
        (PowerModel, "leakage_power", PowerModel.leakage_power_reference),
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
