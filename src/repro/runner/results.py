"""Sweep outcome model: per-job records and the aggregate result.

Every record is flat (floats, strings, dicts of floats) so it pickles
cheaply across the process pool and serialises 1:1 to a JSONL line.  The
aggregate :class:`SweepResult` is what ``repro.reporting`` renders and
what the CLI's ``--json`` mode emits via :meth:`SweepResult.to_dict`.

The engine's streaming writer emits one :meth:`JobResult.to_record` /
:meth:`JobFailure.to_record` line per cell, and :meth:`SweepResult.from_jsonl`
is the one reader shared by sweep resume (``run_sweep(resume_from=...)``)
and offline reporting (``python -m repro report``): every record reloads
through :func:`outcome_from_record`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

Cell = Tuple[str, float, float]
"""Grid coordinate: (benchmark, t_ambient, corner)."""


@dataclass(frozen=True)
class JobResult:
    """A successfully guardbanded grid cell."""

    job_id: str
    benchmark: str
    t_ambient: float
    corner: float
    frequency_hz: float
    """Thermal-aware guardbanded clock (Algorithm 1)."""
    worst_case_hz: float
    """Conventional Tworst baseline clock on the same device."""
    gain: float
    """Fractional improvement over the worst-case baseline."""
    iterations: int
    total_power_w: float
    max_tile_celsius: float
    mean_tile_celsius: float
    wall_seconds: float
    attempts: int = 1
    cache_key: Optional[str] = None
    """Flow-cache key of the underlying P&R, when caching was on."""
    cache_events: Dict[str, int] = field(default_factory=dict)
    """Flow-cache behaviour attributed to this job: counts per kind
    ("hit"/"miss"/"quarantine"), diffed from the per-process counters
    around the job's execution.  Zero-count kinds are omitted."""
    store_event: Optional[str] = None
    """Result-store outcome for this cell: "hit" (converged result
    served without re-running Algorithm 1), "miss" (computed and
    persisted), or ``None`` when the sweep ran without a store."""
    mode: str = "frequency"
    """Objective the cell was run under ("frequency" or "energy")."""
    vdd_v: Optional[float] = None
    """Core supply the result closes timing at, volts.  Nominal for
    frequency-mode cells; the bisected closing supply in energy mode.
    ``None`` only for records written before the energy objective."""
    energy_saving: Optional[float] = None
    """Energy-mode fractional power (= energy-per-cycle, at
    iso-frequency) saving vs nominal supply; ``None`` in frequency
    mode."""
    energy_per_cycle_j: Optional[float] = None
    """Energy-mode total energy per clock cycle at the closing supply,
    joules; ``None`` in frequency mode."""

    @property
    def cell(self) -> Cell:
        return (self.benchmark, self.t_ambient, self.corner)

    def to_record(self) -> Dict[str, object]:
        return {"type": "result", **asdict(self)}


@dataclass(frozen=True)
class JobFailure:
    """A grid cell that exhausted its attempts; recorded, never fatal."""

    job_id: str
    benchmark: str
    t_ambient: float
    corner: float
    error_type: str
    message: str
    attempts: int
    wall_seconds: float
    retryable: bool = False
    """Whether the final error was of a retryable class (budget exhausted)."""
    diagnostics: Dict[str, object] = field(default_factory=dict)
    """Structured failure forensics, when the error carried any.  A
    diverged Algorithm 1 cell records ``iterations`` and
    ``last_max_delta_celsius`` from the partial fixed point
    (:class:`~repro.core.guardband.GuardbandError` diagnostics), so a
    non-converging cell is debuggable straight from the JSONL stream."""

    @property
    def cell(self) -> Cell:
        return (self.benchmark, self.t_ambient, self.corner)

    def to_record(self) -> Dict[str, object]:
        return {"type": "failure", **asdict(self)}


_RESULT_FIELDS = frozenset(f.name for f in fields(JobResult))
_FAILURE_FIELDS = frozenset(f.name for f in fields(JobFailure))


def outcome_from_record(
    record: Dict[str, object]
) -> Union[JobResult, JobFailure]:
    """Rebuild one streamed record (inverse of ``to_record``).

    Unknown keys are dropped and missing optional fields take their
    defaults, so JSONL written by older engine versions still reloads.
    """
    kind = record.get("type")
    if kind == "result":
        return JobResult(
            **{k: v for k, v in record.items() if k in _RESULT_FIELDS}  # type: ignore[arg-type]
        )
    if kind == "failure":
        return JobFailure(
            **{k: v for k, v in record.items() if k in _FAILURE_FIELDS}  # type: ignore[arg-type]
        )
    raise ValueError(f"record has unknown type {kind!r}")


@dataclass
class SweepResult:
    """Aggregate of one engine run over an experiment grid."""

    results: List[JobResult] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    wall_seconds: float = 0.0
    workers: int = 1
    jsonl_path: Optional[str] = None
    n_resumed: int = 0
    """Cells reloaded from a prior run's records instead of re-executed
    (``run_sweep(resume_from=...)``); counted within ``results``."""

    @property
    def n_jobs(self) -> int:
        return len(self.results) + len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures and bool(self.results)

    def result_for(
        self, benchmark: str, t_ambient: float, corner: float
    ) -> Optional[JobResult]:
        for result in self.results:
            if result.cell == (benchmark, t_ambient, corner):
                return result
        return None

    def gains(self) -> Dict[Cell, float]:
        """Guardbanding gain per grid cell (failed cells absent)."""
        return {r.cell: r.gain for r in self.results}

    def frequencies(self) -> Dict[Cell, float]:
        return {r.cell: r.frequency_hz for r in self.results}

    def mean_gain(
        self,
        t_ambient: Optional[float] = None,
        corner: Optional[float] = None,
    ) -> float:
        """Average gain over (a slice of) the grid, Figs. 6-7 style."""
        # Grid-coordinate matching: both sides round-trip unchanged from
        # the ExperimentSpec grid, so exact equality is the correct test.
        picked = [
            r.gain
            for r in self.results
            if (t_ambient is None or r.t_ambient == t_ambient)  # repro-lint: ignore[float-equality]
            and (corner is None or r.corner == corner)  # repro-lint: ignore[float-equality]
        ]
        if not picked:
            raise ValueError("no successful cells match the requested slice")
        return sum(picked) / len(picked)

    def cache_totals(self) -> Dict[str, int]:
        """Flow-cache hits/misses/quarantines summed over successful cells."""
        totals = {"hit": 0, "miss": 0, "quarantine": 0}
        for result in self.results:
            for kind, count in result.cache_events.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    def store_totals(self) -> Dict[str, int]:
        """Result-store hits/misses summed over successful cells."""
        totals = {"hit": 0, "miss": 0}
        for result in self.results:
            if result.store_event is not None:
                totals[result.store_event] = (
                    totals.get(result.store_event, 0) + 1
                )
        return totals

    def to_dict(self) -> Dict[str, object]:
        """Machine-readable summary (the CLI's ``--json`` payload)."""
        return {
            "n_jobs": self.n_jobs,
            "n_ok": len(self.results),
            "n_failed": len(self.failures),
            "n_resumed": self.n_resumed,
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "jsonl_path": self.jsonl_path,
            "cache_totals": self.cache_totals(),
            "store_totals": self.store_totals(),
            "results": [asdict(r) for r in self.results],
            "failures": [asdict(f) for f in self.failures],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "SweepResult":
        """Reload a run from its per-cell JSONL stream.

        Tolerant of interrupted runs: a torn trailing line (the writer
        was killed mid-write) is skipped, and when a ``job_id`` appears
        more than once — a resumed run re-records reloaded cells, and a
        cell that failed once may succeed later — the *last* record
        wins.
        """
        latest: Dict[str, Union[JobResult, JobFailure]] = {}
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    outcome = outcome_from_record(json.loads(line))
                except (json.JSONDecodeError, TypeError, ValueError):
                    continue
                latest[outcome.job_id] = outcome
        sweep = cls(jsonl_path=str(path))
        for outcome in latest.values():
            if isinstance(outcome, JobResult):
                sweep.results.append(outcome)
            else:
                sweep.failures.append(outcome)
        return sweep
