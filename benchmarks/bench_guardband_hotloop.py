"""Algorithm 1 hot-loop benchmark — per-iteration wall time, fast vs seed.

Runs :func:`thermal_aware_guardband` on the VTR-suite netlists twice per
design — on the vectorized fast path (flattened STA element arrays,
pre-factorized thermal solve, matrix-product power model) and on the seed
reference implementation (:mod:`repro.core.reference`) — and reports the
mean per-iteration wall time of the hot loop (STA + power + thermal
phases, summed from the ``guardband.*`` :mod:`repro.observe` spans) and
iterations/sec for each.  Both runs must converge to identical guardband
frequencies.

Smoke mode for CI: set ``HOTLOOP_SMOKE=1`` to run a single netlist and
only assert completion + equivalence (no speedup threshold — CI machines
are noisy).
"""

from __future__ import annotations

import os

import numpy as np

from repro import observe
from repro.cad.flow import run_flow
from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.core.reference import seed_implementation
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark
from repro.reporting.tables import format_table

SMOKE = os.environ.get("HOTLOOP_SMOKE", "") == "1"
SMOKE_NETLISTS = ("sha",)
T_AMBIENT = 25.0
SPEEDUP_FLOOR = 3.0
"""Acceptance floor: mean per-iteration wall time must improve >= 3x."""
PHASE_SPANS = ("guardband.sta", "guardband.power", "guardband.thermal")


def _hotloop_seconds(flow, fabric, base_activity, repeats=3):
    """Best-of-``repeats`` (total hot-loop seconds, iterations, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        sink = observe.InMemorySink()
        with observe.enabled(sink=sink):
            result = thermal_aware_guardband(
                flow, fabric, T_AMBIENT,
                config=GuardbandConfig(base_activity=base_activity),
            )
        total = sum(
            r["duration_s"] for r in sink.spans() if r["name"] in PHASE_SPANS
        )
        best = min(best, total)
    return best, result.iterations, result


def test_guardband_hotloop_speedup(arch, fabric25):
    specs = [
        s for s in VTR_BENCHMARKS if not SMOKE or s.name in SMOKE_NETLISTS
    ]
    rows = []
    fast_total = seed_total = 0.0
    total_iterations = 0
    for spec in specs:
        flow = run_flow(vtr_benchmark(spec.name), arch)
        fast_s, fast_iters, fast_res = _hotloop_seconds(
            flow, fabric25, spec.base_activity
        )
        with seed_implementation():
            seed_s, seed_iters, seed_res = _hotloop_seconds(
                flow, fabric25, spec.base_activity, repeats=2
            )
        # Equivalence gate: the fast path must be a pure optimization.
        assert fast_iters == seed_iters, spec.name
        np.testing.assert_allclose(
            fast_res.frequency_hz, seed_res.frequency_hz, rtol=1e-9
        )
        np.testing.assert_allclose(
            fast_res.tile_temperatures, seed_res.tile_temperatures, rtol=1e-9
        )
        fast_total += fast_s
        seed_total += seed_s
        total_iterations += fast_iters
        rows.append(
            (
                spec.name,
                fast_iters,
                f"{fast_s / fast_iters * 1e3:.3f}",
                f"{seed_s / seed_iters * 1e3:.3f}",
                f"{fast_iters / fast_s:.0f}",
                f"{seed_s / fast_s:.2f}x",
            )
        )

    fast_mean = fast_total / total_iterations
    seed_mean = seed_total / total_iterations
    speedup = seed_mean / fast_mean
    print()
    print(
        format_table(
            ["netlist", "iters", "fast ms/iter", "seed ms/iter",
             "fast iter/s", "speedup"],
            rows,
            title="Algorithm 1 hot loop — per-iteration wall time",
        )
    )
    print(
        f"\nmean per-iteration: fast {fast_mean * 1e3:.3f} ms "
        f"({1.0 / fast_mean:.0f} iterations/sec), "
        f"seed {seed_mean * 1e3:.3f} ms ({1.0 / seed_mean:.0f} iterations/sec) "
        f"-> {speedup:.2f}x speedup"
    )

    assert fast_total > 0.0 and total_iterations > 0
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"hot-loop speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x acceptance floor"
        )
