"""Result store benchmark — sweep checkpoint/resume.

One acceptance gate over the engine's checkpoint/resume path: a
recorded sweep is truncated to its first ``k`` cells and resumed.  The
engine must re-execute exactly ``total - k`` cells (measured by
``sweep.cell`` execution spans in an observe trace) and re-emit the
``k`` reloaded ones as ``sweep.cell_skipped`` events; a resume from the
*complete* record must execute zero.

Smoke mode for CI: set ``STORE_SMOKE=1`` to shrink the grid.  The gate
always applies — it is a correctness property, not a machine-dependent
performance floor.
"""

from __future__ import annotations

import os
import tempfile

from repro.api import ExperimentSpec, run_sweep
from repro.observe.sinks import InMemorySink
from repro import observe

SMOKE = os.environ.get("STORE_SMOKE", "") == "1"

BENCHMARKS = ("sha", "mkDelayWorker32B")
AMBIENTS = (15.0, 25.0, 35.0, 45.0, 55.0, 65.0)
SMOKE_BENCHMARKS = ("mkPktMerge",)
SMOKE_AMBIENTS = (25.0, 35.0, 45.0)


def _grid():
    return (
        SMOKE_BENCHMARKS if SMOKE else BENCHMARKS,
        SMOKE_AMBIENTS if SMOKE else AMBIENTS,
    )


def _executed_and_skipped(sink: InMemorySink):
    executed = [r for r in sink.spans() if r.get("name") == "sweep.cell"]
    skipped = [
        r for r in sink.events() if r.get("name") == "sweep.cell_skipped"
    ]
    return executed, skipped


def test_resume_reexecutes_only_the_remainder():
    benches, ambients = _grid()
    spec = ExperimentSpec(benchmarks=benches, ambients=ambients)
    total = spec.n_jobs

    with tempfile.TemporaryDirectory() as tmp:
        jsonl = os.path.join(tmp, "sweep.jsonl")
        first = run_sweep(spec, workers=1, jsonl_path=jsonl)
        assert first.ok and first.n_jobs == total

        # Simulate a kill after k cells: keep only the first k records.
        k = total // 2
        with open(jsonl, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        assert len(lines) == total
        truncated = os.path.join(tmp, "truncated.jsonl")
        with open(truncated, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:k])

        sink = InMemorySink()
        with observe.enabled(sink=sink):
            partial = run_sweep(
                spec, workers=1,
                jsonl_path=os.path.join(tmp, "resumed.jsonl"),
                resume_from=truncated,
            )
        executed, skipped = _executed_and_skipped(sink)
        print(
            f"\nresume after {k}/{total} cells: {len(executed)} executed, "
            f"{len(skipped)} skipped"
        )
        assert partial.ok and partial.n_resumed == k
        assert len(executed) == total - k, (
            f"resume re-executed {len(executed)} cells, expected {total - k}"
        )
        assert len(skipped) == k
        assert partial.frequencies() == first.frequencies()

        # Resume from the complete record: zero re-execution.
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            full = run_sweep(spec, workers=1, resume_from=jsonl)
        executed, skipped = _executed_and_skipped(sink)
        print(f"full-record resume: {len(executed)} executed, "
              f"{len(skipped)} skipped")
        assert full.ok and full.n_resumed == total
        assert len(executed) == 0, (
            f"resume from a complete record re-executed {len(executed)} cells"
        )
        assert len(skipped) == total
        assert full.frequencies() == first.frequencies()
