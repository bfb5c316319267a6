"""Batched Algorithm 1 benchmark — one joint fixed point vs per-cell calls.

Runs an ambient sweep (20 same-flow cells) on one placed VTR netlist
twice through the same Algorithm 1 kernel — once as 20 per-cell
:func:`thermal_aware_guardband` calls (a batch of one each, rebuilding
the thermal factorization and power model per cell) and once as a
single :func:`thermal_aware_guardband_batch` call, which stacks the
cells into ``(n_cells, n_tiles)`` arrays and amortises the thermal
factorization, STA delay interpolation and power model across the
batch — and asserts the batched wall time beats the per-cell calls by
the acceptance floor while every cell's result is bit-identical
(DESIGN.md §12).

Smoke mode for CI: set ``BATCH_SMOKE=1`` to run one netlist once and
only assert completion + equivalence (no speedup threshold — CI machines
are noisy).
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.cad.flow import run_flow
from repro.core.guardband import (
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.netlists.vtr_suite import vtr_benchmark
from repro.reporting.tables import format_table

SMOKE = os.environ.get("BATCH_SMOKE", "") == "1"
NETLISTS = ("sha",) if SMOKE else ("sha", "or1200")
N_CELLS = 20
"""Cells per batch: one ambient sweep over the same placed flow."""
AMBIENTS = tuple(float(t) for t in np.linspace(5.0, 80.0, N_CELLS))
REPEATS = 1 if SMOKE else 3
SPEEDUP_FLOOR = 3.0
"""Acceptance floor: the batched sweep must beat per-cell calls >= 3x."""


def _best_of(fn, repeats):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_guardband_batch_speedup(arch, fabric25):
    rows = []
    loop_total = batch_total = 0.0
    for name in NETLISTS:
        flow = run_flow(vtr_benchmark(name), arch)
        # Warm the per-flow memos so both paths time pure solver work.
        thermal_aware_guardband(flow, fabric25, AMBIENTS[0])
        thermal_aware_guardband_batch(flow, fabric25, AMBIENTS[:2])

        loop_s, looped = _best_of(
            lambda: [
                thermal_aware_guardband(flow, fabric25, t) for t in AMBIENTS
            ],
            REPEATS,
        )
        batch_s, batched = _best_of(
            lambda: thermal_aware_guardband_batch(flow, fabric25, AMBIENTS),
            REPEATS,
        )

        # Equivalence gate: batching never changes a cell's result.
        assert len(batched) == N_CELLS
        for reference, outcome in zip(looped, batched):
            assert outcome.frequency_hz == reference.frequency_hz, name
            assert outcome.iterations == reference.iterations, name
            assert np.array_equal(
                outcome.tile_temperatures, reference.tile_temperatures
            ), name

        loop_total += loop_s
        batch_total += batch_s
        rows.append(
            (
                name,
                N_CELLS,
                f"{loop_s * 1e3:.1f}",
                f"{batch_s * 1e3:.1f}",
                f"{loop_s / batch_s:.2f}x",
            )
        )

    speedup = loop_total / batch_total
    print()
    print(
        format_table(
            ["netlist", "cells", "per-cell ms", "batched ms", "speedup"],
            rows,
            title=f"Batched Algorithm 1 — {N_CELLS}-cell ambient sweep",
        )
    )
    print(
        f"\ntotal: per-cell {loop_total * 1e3:.1f} ms, "
        f"batched {batch_total * 1e3:.1f} ms -> {speedup:.2f}x speedup"
    )

    assert loop_total > 0.0 and batch_total > 0.0
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched sweep speedup {speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR:.0f}x acceptance floor on {N_CELLS} cells"
        )
