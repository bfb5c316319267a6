"""Sweep engine benchmark — parallel scaling vs. the serial baseline.

Runs the same experiment grid (a VTR subset x four ambients) twice on
:func:`repro.runner.run_sweep` — ``workers=1`` and ``workers=N`` — after
prewarming the flow cache so both timings measure Algorithm 1 work, not
place-and-route.  The parallel sweep must be *bit-identical* to the
serial one (same pure ``_execute_unit`` per cell) and, on machines with
enough cores, at least ``SPEEDUP_FLOOR`` faster.

Smoke mode for CI: set ``SWEEP_SMOKE=1`` to shrink the grid and skip the
speedup floor (CI machines are noisy and often single-core); the
bit-identity gate always applies.  The floor is also skipped when the
machine simply lacks the cores (``os.cpu_count() < PARALLEL_WORKERS``).
"""

from __future__ import annotations

import os
import time

from repro.runner import ExperimentSpec, run_sweep
from repro.reporting.tables import format_table

SMOKE = os.environ.get("SWEEP_SMOKE", "") == "1"
PARALLEL_WORKERS = 4
SPEEDUP_FLOOR = 2.0
"""Acceptance floor with PARALLEL_WORKERS workers on >= that many cores."""

BENCHMARKS = ("sha", "or1200", "blob_merge", "mkDelayWorker32B",
              "stereovision0", "raygentop")
AMBIENTS = (0.0, 25.0, 50.0, 75.0)
SMOKE_BENCHMARKS = ("sha", "mkPktMerge")
SMOKE_AMBIENTS = (25.0, 70.0)


def test_sweep_parallel_scaling():
    spec = ExperimentSpec(
        benchmarks=SMOKE_BENCHMARKS if SMOKE else BENCHMARKS,
        ambients=SMOKE_AMBIENTS if SMOKE else AMBIENTS,
    )

    # Prewarm the flow cache so neither timed run pays P&R.
    warmup = run_sweep(spec, workers=1)
    assert warmup.ok, warmup.failures

    started = time.perf_counter()
    serial = run_sweep(spec, workers=1)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    parallel = run_sweep(spec, workers=PARALLEL_WORKERS)
    parallel_s = time.perf_counter() - started

    # Determinism gate: fan-out must not change a single result.
    assert serial.ok and parallel.ok
    assert serial.frequencies() == parallel.frequencies()
    assert serial.gains() == parallel.gains()

    speedup = serial_s / parallel_s
    print()
    print(
        format_table(
            ["mode", "workers", "cells", "wall (s)", "cells/s"],
            [
                ("serial", 1, serial.n_jobs, f"{serial_s:.2f}",
                 f"{serial.n_jobs / serial_s:.1f}"),
                ("parallel", parallel.workers, parallel.n_jobs,
                 f"{parallel_s:.2f}", f"{parallel.n_jobs / parallel_s:.1f}"),
            ],
            title="Sweep engine — serial vs. parallel wall time",
        )
    )
    print(f"\nspeedup {speedup:.2f}x on {os.cpu_count()} cores")

    cores = os.cpu_count() or 1
    if not SMOKE and cores >= PARALLEL_WORKERS:
        assert speedup >= SPEEDUP_FLOOR, (
            f"parallel sweep speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR:.1f}x floor with {PARALLEL_WORKERS} workers "
            f"on {cores} cores"
        )
