"""Parallel, fault-tolerant sweep engine.

:func:`run_sweep` expands an :class:`~repro.runner.spec.ExperimentSpec`
into jobs and executes them either in-process (``workers=1`` and no
``job_timeout``) or on a ``ProcessPoolExecutor``.  Design points:

- **Determinism** — serial and parallel paths run the *same* pure
  :func:`_execute_unit`, so a parallel sweep is bit-identical to a serial
  one (every unit recomputes from the same seeded inputs), and a batched
  sweep reports the same frequency, critical path, iterations and VDD
  per cell as an unbatched one (one Algorithm 1 kernel serves a unit of
  one cell and a unit of many; temperatures can differ by ulps, see
  :func:`run_sweep`).
- **Graceful degradation** — a job that raises is recorded as a
  :class:`~repro.runner.results.JobFailure`; the sweep always returns a
  complete :class:`~repro.runner.results.SweepResult`.
- **One retry policy** — :func:`next_attempt` decides every failed
  attempt, on the serial path, the pool path and in the sweep service.
  Transient errors (:class:`RoutingError`, ``OSError`` and friends,
  broken pools) are retried up to ``max_retries`` extra attempts;
  deterministic failures are not retried.  A :class:`RoutingError`
  retry perturbs the placement seed — the flow is deterministic (and
  already escalates channel width internally), so an identical re-run
  would only fail identically.  A worker killed mid-job
  (``BrokenProcessPool``) costs one rebuild of the shared
  :class:`WorkerPool`, and only the units that held a worker slot are
  charged an attempt.
- **Observability** — each finished cell streams one JSONL record
  and fires the ``progress`` callback.  The JSONL file is truncated at
  the start of each run, so one file is one run.  When an
  observability session is active (CLI ``--trace``), the sweep
  additionally emits a ``sweep.run`` span, per-cell ``sweep.cell``
  lifecycle spans and ``job.terminal``/``job.retry`` events — including
  for timed-out and killed-worker cells, whose worker-side spans never
  close — and ships a :class:`~repro.observe.context.TraceContext` to
  every pool worker so worker spans re-parent under the sweep's trace.
- **Per-job timeout** — a job overdue past ``job_timeout`` seconds is
  recorded as a timeout failure and never retried.  At most ``workers``
  jobs are dispatched to the pool at a time (the rest wait in an
  engine-side ready queue), so the timeout clock starts at execution
  start, not submission — queue wait behind a full pool never counts
  against it.  A genuinely wedged worker cannot be force-killed through
  ``concurrent.futures``; its slot is parked until the late result
  arrives and is discarded, and if every slot wedges the pool is
  rebuilt.  A sweep with a ``job_timeout`` always runs on the pool,
  even with one worker or one unit: an in-process job cannot be timed
  out.

- **Persistence and resume** — with a :class:`~repro.store.ResultStore`
  attached, every converged cell is persisted under its content digest
  (flow cache key x config x ambient x corner x schema version); a
  digest hit in any later sweep serves the stored fixed point without
  re-running Algorithm 1.  ``resume_from`` reloads a prior run's JSONL:
  recorded successes are re-emitted as ``sweep.cell_skipped`` events
  (never ``sweep.cell`` execution spans) and only the remainder is
  dispatched.  Every cell starts from its flat ambient, so a sweep
  with a store is bit-identical to one without.

The shared on-disk flow cache (:mod:`repro.cad.flow`) is safe under this
fan-out: per-entry file locks serialise place-and-route so concurrent
workers needing the same mapping share one computation.
"""

from __future__ import annotations

import json
import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import (
    Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

from repro import observe
from repro.cad.flow import cache_counters, run_flow
from repro.cad.route import RoutingError
from repro.observe.clock import monotonic
from repro.observe.context import TraceContext
from repro.coffe.fabric import build_fabric
from repro.core.guardband import (
    GuardbandError,
    GuardbandResult,
    # Unused here but kept bound: perfbench's ledger times Algorithm 1
    # by wrapping this module's names, and an unbound one breaks it.
    thermal_aware_guardband,  # noqa: F401
    thermal_aware_guardband_batch,
)
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.memo import Memo
from repro.runner.results import JobFailure, JobResult, SweepResult
from repro.runner.spec import ExperimentSpec, SweepJob
from repro.store import ResultStore, store_digest

ProgressCallback = Callable[[Union[JobResult, JobFailure], int, int], None]

RETRYABLE_ERRORS: Tuple[type, ...] = (
    RoutingError,
    OSError,
    EOFError,
    BrokenProcessPool,
)
"""Error classes worth a bounded re-attempt: congestion that may clear
under a different placement seed (see :func:`next_attempt`),
filesystem/cache races, and pool breakage from a killed worker.
Everything else is deterministic and fails fast."""

DEFAULT_MAX_RETRIES = 1
"""Extra attempts after the first, per job."""

BASELINE_MEMO_SIZE = 64
"""Worst-case baselines kept per process, one float per (flow, corner,
arch): the VTR-19 suite at three corners."""

_baselines: Memo[float] = Memo("sweep.baseline.memo", BASELINE_MEMO_SIZE)


def _batch_key(job: SweepJob) -> Tuple[object, ...]:
    """Everything a batch must share: one flow, one fabric, one config.

    Jobs agreeing on this key resolve to the same flow cache key (the
    netlist/arch/seed triple determines it) and differ only in ambient —
    exactly the axis :func:`thermal_aware_guardband_batch` vectorizes.
    """
    return (
        job.benchmark,
        job.netlist_spec,
        job.arch,
        job.seed,
        job.timing_driven,
        job.corner,
        job.config,
    )


def batch_units(jobs: List[SweepJob]) -> List[List[SweepJob]]:
    """Group same-flow jobs into batched work units, grid order preserved.

    Each unit is dispatched (and retried, and timed out) as one work
    item; its cells still record individually — one JSONL line, one
    ``sweep.cell`` span and one store write per cell.
    """
    grouped: Dict[Tuple[object, ...], List[SweepJob]] = {}
    order: List[Tuple[object, ...]] = []
    for job in jobs:
        key = _batch_key(job)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(job)
    return [grouped[key] for key in order]


def _execute_unit(
    unit: List[SweepJob], store: Optional[str] = None
) -> List[Union[JobResult, JobFailure]]:
    """Run one work unit of same-flow cells end-to-end.

    A unit is a single cell, or (``batch=True``) a group of cells that
    share one placed flow.  Pure: deterministic in ``unit``, with or
    without a ``store``.  Module-level so the process pool can pickle it
    by reference; the serial path calls it directly, guaranteeing
    identical numerics.

    The placed netlist, fabric and worst-case baseline are resolved
    once per unit.  The baseline never depends on the ambient: it is
    one 100 C STA per (flow, fabric) per process, keyed as
    :func:`~repro.store.store_digest` names them.  ``store`` is the result-store root (a
    path, so it crosses the pool boundary cheaply): cells already
    persisted there are served as per-cell hits without re-running
    Algorithm 1, and only the remainder enters one joint fixed point,
    each converged cell then persisted.
    Returns one :class:`JobResult` (or, for a diverged cell,
    :class:`JobFailure`) per input job, in input order.  Wall clock is
    attributed evenly across the unit's cells.
    """
    start = monotonic()
    result_store = ResultStore(store) if store is not None else None
    n_jobs = len(unit)
    lead = unit[0]
    unit_span = observe.span(
        "sweep.unit",
        benchmark=lead.benchmark,
        corner=lead.corner,
        n_cells=n_jobs,
        job_ids=[job.job_id for job in unit],
    )
    with unit_span:
        cache_before = cache_counters()
        netlist = lead.resolve_netlist()
        flow = run_flow(
            netlist, lead.arch, seed=lead.seed,
            timing_driven=lead.timing_driven,
            thermal_weight=lead.config.thermal_weight,
        )
        fabric = build_fabric(lead.corner, lead.arch)
        worst_case_hz = _baselines.get(
            (flow.cache_key, float(lead.corner), lead.arch),
            lambda: worst_case_frequency(flow, fabric),
        )

        results: List[Optional[GuardbandResult]] = [None] * n_jobs
        errors: Dict[int, GuardbandError] = {}
        digests: Dict[int, str] = {}
        store_events: Dict[int, str] = {}
        if result_store is not None:
            for i, job in enumerate(unit):
                digests[i] = store_digest(
                    flow.cache_key, job.config, job.t_ambient, job.corner
                )
                results[i] = result_store.get(digests[i])
                store_events[i] = "hit" if results[i] is not None else "miss"
        pending = [i for i in range(n_jobs) if results[i] is None]
        if pending:
            outcomes = thermal_aware_guardband_batch(
                flow, fabric, [unit[i].t_ambient for i in pending],
                config=lead.config,
            )
            for i, outcome in zip(pending, outcomes):
                if isinstance(outcome, GuardbandError):
                    errors[i] = outcome
                else:
                    results[i] = outcome
                    if result_store is not None and i in digests:
                        result_store.put(digests[i], outcome)
        cache_after = cache_counters()
        cache_events = {
            kind: cache_after[kind] - cache_before[kind]
            for kind in cache_after
            if cache_after[kind] > cache_before[kind]
        }
        unit_span.set_attrs(n_computed=len(pending), n_failed=len(errors))

    wall_share = (monotonic() - start) / n_jobs
    records: List[Union[JobResult, JobFailure]] = []
    for i, job in enumerate(unit):
        store_event = store_events.get(i)
        error = errors.get(i)
        if error is not None:
            records.append(_failure_from(job, error, 1, wall_share))
            continue
        result = results[i]
        assert result is not None  # every index is a result or an error
        records.append(
            JobResult(
                job_id=job.job_id,
                benchmark=job.benchmark,
                t_ambient=job.t_ambient,
                corner=job.corner,
                frequency_hz=result.frequency_hz,
                worst_case_hz=worst_case_hz,
                gain=guardband_gain(result.frequency_hz, worst_case_hz),
                iterations=result.iterations,
                total_power_w=result.total_power_w,
                max_tile_celsius=float(result.tile_temperatures.max()),
                mean_tile_celsius=float(result.tile_temperatures.mean()),
                wall_seconds=wall_share,
                cache_key=flow.cache_key,
                cache_events=cache_events if i == 0 else {},
                store_event=store_event,
                mode=result.mode,
                vdd_v=result.vdd_v,
                energy_saving=(
                    result.energy.power_saving_fraction
                    if result.energy
                    else None
                ),
                energy_per_cycle_j=(
                    result.energy.energy_per_cycle_j
                    if result.energy
                    else None
                ),
            )
        )
    return records


def run_unit_in_worker(
    unit: List[SweepJob],
    context: Optional[TraceContext],
    store: Optional[str] = None,
) -> List[Union[JobResult, JobFailure]]:
    """Pool-worker entry point: join the dispatching sweep's trace.

    ``context`` is the engine's :func:`repro.observe.propagation_context`
    at dispatch time (``None`` when tracing is off).  The worker attaches
    for exactly this unit, appending its spans to the sweep's JSONL file
    and flushing its metric deltas on detach.
    """
    with observe.attach(context):
        return _execute_unit(unit, store=store)


class _JsonlWriter:
    """Per-run JSONL stream of per-job records, flushed per line.

    The path is truncated on open so one file always holds exactly one
    run — re-running a sweep with the same ``--jsonl`` path never mixes
    records from different runs.
    """

    def __init__(self, path: Optional[str]) -> None:
        self._handle = open(path, "w", encoding="utf-8") if path else None

    def write(self, outcome: Union[JobResult, JobFailure]) -> None:
        """Append ``outcome``'s record; serialised only when a file is open."""
        if self._handle is None:
            return
        record = outcome.to_record()
        self._handle.write(json.dumps(record, sort_keys=False) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()


def _failure_diagnostics(error: BaseException) -> Dict[str, object]:
    """Structured forensics to record alongside a failure, when available.

    A diverged Algorithm 1 cell carries its partial fixed point on the
    :class:`GuardbandError`; surfacing the iteration count and the last
    ``||dT||_inf`` in the JSONL record makes divergence debuggable
    without re-running the cell.
    """
    if isinstance(error, GuardbandError) and error.history:
        return {
            "iterations": error.iterations,
            "last_max_delta_celsius": error.last_max_delta_celsius,
        }
    return {}


def _failure_from(
    job: SweepJob, error: BaseException, attempts: int, wall_seconds: float
) -> JobFailure:
    return JobFailure(
        job_id=job.job_id,
        benchmark=job.benchmark,
        t_ambient=job.t_ambient,
        corner=job.corner,
        error_type=type(error).__name__,
        message=str(error) or type(error).__name__,
        attempts=attempts,
        wall_seconds=wall_seconds,
        retryable=isinstance(error, RETRYABLE_ERRORS),
        diagnostics=_failure_diagnostics(error),
    )


def next_attempt(
    unit: List[SweepJob],
    attempts: int,
    error: BaseException,
    max_retries: int,
    started: float,
) -> Tuple[Optional[List[SweepJob]], List[JobFailure]]:
    """The one retry-or-fail decision for a work unit whose attempt raised.

    Returns ``(retry, [])`` when ``error`` is retryable and the unit has
    attempts left: ``retry`` is the unit to run as attempt
    ``attempts + 1``, and each cell emits a ``job.retry`` event.
    ``run_flow`` is deterministic for a given (netlist, arch, seed) and
    already escalates channel width internally, so a
    :class:`RoutingError` retry perturbs the placement seed to explore a
    different mapping; other transient errors (filesystem races, pool
    breakage) re-run the unit unchanged.  Otherwise returns
    ``(None, failures)``, one :class:`JobFailure` per cell.
    """
    if not (isinstance(error, RETRYABLE_ERRORS) and attempts <= max_retries):
        wall_seconds = monotonic() - started
        return None, [
            _failure_from(job, error, attempts, wall_seconds) for job in unit
        ]
    for job in unit:
        observe.counter("sweep.retries").inc()
        observe.event(
            "job.retry",
            job_id=job.job_id,
            attempts=attempts,
            error_type=type(error).__name__,
        )
    if isinstance(error, RoutingError):
        unit = [replace(job, seed=job.seed + 1) for job in unit]
    return unit, []


class WorkerPool:
    """The process pool shared by a parallel sweep or the sweep service.

    A worker killed mid-unit breaks the whole ``ProcessPoolExecutor``:
    every unit in flight on it fails with ``BrokenProcessPool``, and each
    failure asks for a rebuild.  Only the first request, the one whose
    pool is still :attr:`executor`, replaces it, so one dead worker
    costs one rebuild (the ``sweep.pool_rebuilds`` counter).  Callers
    keep at most :attr:`workers` units in flight, so every unit a
    breakage charges an attempt held a worker slot.
    """

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.executor = ProcessPoolExecutor(max_workers=workers)

    def rebuild(self, broken: ProcessPoolExecutor) -> None:
        """Replace ``broken`` with a fresh pool, unless already replaced."""
        if broken is not self.executor:
            return
        broken.shutdown(wait=False, cancel_futures=True)
        self.executor = ProcessPoolExecutor(max_workers=self.workers)
        observe.counter("sweep.pool_rebuilds").inc()

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


@dataclass
class _Tracked:
    """Book-keeping for one in-flight parallel work unit."""

    unit: List[SweepJob]
    attempts: int
    started: float
    submitted: float
    executor: ProcessPoolExecutor


def run_sweep(
    spec: Union[ExperimentSpec, List[SweepJob]],
    workers: Optional[int] = 1,
    max_retries: int = DEFAULT_MAX_RETRIES,
    job_timeout: Optional[float] = None,
    jsonl_path: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    store: Union[ResultStore, str, None] = None,
    resume_from: Optional[str] = None,
    batch: bool = False,
) -> SweepResult:
    """Execute an experiment grid; never raises for a failing cell.

    ``workers=None`` uses the machine's core count; ``workers=1`` runs
    serially in-process (same numerics, no pool overhead) unless
    ``job_timeout`` is set.  Returns a
    :class:`SweepResult` whose ``results``/``failures`` partition the
    grid.

    ``store`` (a :class:`~repro.store.ResultStore` or its root path)
    persists every converged cell keyed by its content digest, so an
    identical cell in any later sweep is served without re-running
    Algorithm 1.

    ``resume_from`` points at a prior run's per-cell JSONL stream
    (typically the same path as ``jsonl_path``): cells it records as
    successful are reloaded and re-recorded — with ``sweep.cell_skipped``
    events and the ``sweep.cells.skipped`` counter, never a
    ``sweep.cell`` execution span — and only the remainder (failures and
    never-started cells) is dispatched.  ``resume_from`` is read in full
    before ``jsonl_path`` is truncated, so resuming a run dir in place
    is safe.

    ``batch=True`` groups cells sharing one placed flow (same benchmark,
    arch, seed and fabric corner under one config — an ambient sweep)
    into single batched work items solved as one joint fixed point
    (:func:`~repro.core.guardband.thermal_aware_guardband_batch`): the
    thermal factorization, STA delay tables and power model are built
    once per group instead of once per cell.  Per-cell records, store
    writes, ``sweep.cell`` spans and resume semantics are unchanged.
    Each cell's frequency, critical path, iterations and VDD equal the
    unbatched sweep's; its tile temperatures (and so a stored entry's
    bytes) can differ from it by ulps at some batch widths, since two
    layers round by batch shape (DESIGN.md §12).  Retries and
    ``job_timeout`` apply per work item (i.e. per batch group when
    batching).
    """
    jobs = spec.expand() if isinstance(spec, ExperimentSpec) else list(spec)
    grid_order = {job.job_id: i for i, job in enumerate(jobs)}
    if workers is None:
        workers = max(1, os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")

    store_path: Optional[str] = None
    if isinstance(store, ResultStore):
        store_path = str(store.root)
    elif store is not None:
        store_path = str(store)

    # Checkpoint reload — before the writer below truncates jsonl_path.
    resumed: List[JobResult] = []
    if resume_from is not None:
        prior = SweepResult.from_jsonl(resume_from)
        completed = {r.job_id: r for r in prior.results}
        remaining: List[SweepJob] = []
        for job in jobs:
            if job.job_id in completed:
                resumed.append(completed[job.job_id])
            else:
                remaining.append(job)
        total_jobs = len(jobs)
        jobs = remaining
    else:
        total_jobs = len(jobs)
    units = batch_units(jobs) if batch else [[job] for job in jobs]
    workers = min(workers, max(1, len(units)))

    writer = _JsonlWriter(jsonl_path)
    sweep = SweepResult(workers=workers, jsonl_path=jsonl_path)
    started = monotonic()

    def record(outcome: Union[JobResult, JobFailure]) -> None:
        bucket = sweep.results if isinstance(outcome, JobResult) else sweep.failures
        bucket.append(outcome)
        writer.write(outcome)
        # Engine-side lifecycle trace: emitted for *every* terminal
        # outcome, so cells whose worker never finished (timeout, killed
        # worker) still appear in the trace tree.
        extra: Dict[str, object] = {}
        if isinstance(outcome, JobResult):
            status = "ok"
            extra["cache_hits"] = outcome.cache_events.get("hit", 0)
            observe.counter("sweep.jobs.ok").inc()
        else:
            status = outcome.error_type
            extra["error_type"] = outcome.error_type
            observe.counter("sweep.jobs.failed").inc()
        observe.event(
            "job.terminal",
            job_id=outcome.job_id,
            status=status,
            attempts=outcome.attempts,
        )
        observe.emit_span(
            "sweep.cell",
            duration_s=outcome.wall_seconds,
            status="ok" if isinstance(outcome, JobResult) else "error",
            job_id=outcome.job_id,
            benchmark=outcome.benchmark,
            attempts=outcome.attempts,
            **extra,
        )
        if progress is not None:
            progress(outcome, sweep.n_jobs, total_jobs)

    def record_skipped(result: JobResult) -> None:
        """A reloaded checkpoint cell: re-recorded, never re-executed."""
        sweep.results.append(result)
        sweep.n_resumed += 1
        writer.write(result)
        observe.counter("sweep.cells.skipped").inc()
        observe.event(
            "sweep.cell_skipped", job_id=result.job_id, source="resume"
        )
        if progress is not None:
            progress(result, sweep.n_jobs, total_jobs)

    try:
        run_span = observe.span(
            "sweep.run",
            n_jobs=total_jobs,
            workers=workers,
            n_resumed=len(resumed),
        )
        with run_span:
            for reloaded in resumed:
                record_skipped(reloaded)
            if workers == 1 and job_timeout is None:
                _run_serial(units, max_retries, record, store_path)
            else:
                _run_parallel(
                    units, workers, max_retries, job_timeout, record,
                    store_path,
                )
            run_span.set_attrs(
                n_ok=len(sweep.results), n_failed=len(sweep.failures)
            )
    finally:
        sweep.wall_seconds = monotonic() - started
        writer.close()

    # Stable, grid-order reporting regardless of completion order.
    sweep.results.sort(key=lambda r: grid_order.get(r.job_id, len(grid_order)))
    sweep.failures.sort(key=lambda f: grid_order.get(f.job_id, len(grid_order)))
    return sweep


def _run_serial(
    units: List[List[SweepJob]],
    max_retries: int,
    record: Callable[[Union[JobResult, JobFailure]], None],
    store: Optional[str] = None,
) -> None:
    for unit in units:
        started = monotonic()
        attempt: Optional[List[SweepJob]] = unit
        attempts = 0
        outcomes: Sequence[Union[JobResult, JobFailure]] = []
        while attempt is not None:
            attempts += 1
            try:
                outcomes = [
                    replace(outcome, attempts=attempts)
                    for outcome in _execute_unit(attempt, store=store)
                ]
                break
            except Exception as error:  # degrade, never abort the sweep
                attempt, outcomes = next_attempt(
                    attempt, attempts, error, max_retries, started
                )
        for outcome in outcomes:
            record(outcome)


def _run_parallel(
    units: List[List[SweepJob]],
    workers: int,
    max_retries: int,
    job_timeout: Optional[float],
    record: Callable[[Union[JobResult, JobFailure]], None],
    store: Optional[str] = None,
) -> None:
    pool = WorkerPool(workers)
    # Captured once: every dispatch ships the same trace capsule, parented
    # under the engine's current span (``sweep.run``).  None when off.
    context = observe.propagation_context()
    # (unit, attempts, first-dispatch time or None) units not yet dispatched.
    ready: Deque[Tuple[List[SweepJob], int, Optional[float]]] = deque(
        (unit, 1, None) for unit in units
    )
    pending: Dict[Future, _Tracked] = {}
    zombies: Set[Future] = set()
    """Expired-but-still-running futures: each keeps occupying one worker
    slot until its (discarded) result arrives."""

    def dispatch() -> None:
        # Keep at most `workers` futures in flight (wedged zombie slots
        # count), so a submitted future starts executing immediately:
        # `submitted` approximates execution start — queue wait never
        # eats into `job_timeout` — and a pool breakage only charges
        # units that had a worker slot.
        while ready and len(pending) + len(zombies) < workers:
            unit, attempts, started = ready.popleft()
            executor = pool.executor
            try:
                future = executor.submit(
                    run_unit_in_worker, unit, context, store
                )
            except BrokenProcessPool:
                # The pool died since its futures were last drained; this
                # unit never ran on it, so it is not charged.
                pool.rebuild(executor)
                executor = pool.executor
                future = executor.submit(
                    run_unit_in_worker, unit, context, store
                )
            now = monotonic()
            pending[future] = _Tracked(
                unit=unit,
                attempts=attempts,
                started=started if started is not None else now,
                submitted=now,
                executor=executor,
            )

    dispatch()
    try:
        while pending or ready:
            if not pending:
                # Every slot is wedged on an expired job but grid cells
                # remain: abandon that pool so the sweep progresses.
                pool.rebuild(pool.executor)
                zombies.clear()
                dispatch()
                continue
            done, _ = wait(
                set(pending) | zombies,
                timeout=0.25 if job_timeout is not None else None,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                # A zombie was already recorded as a timeout; its late
                # result is discarded.
                zombies.discard(future)
                tracked = pending.pop(future, None)
                if tracked is None:
                    continue
                try:
                    results = future.result()
                except Exception as error:
                    if isinstance(error, BrokenProcessPool):
                        pool.rebuild(tracked.executor)
                    retry, failures = next_attempt(
                        tracked.unit, tracked.attempts, error, max_retries,
                        tracked.started,
                    )
                    if retry is not None:
                        ready.appendleft(
                            (retry, tracked.attempts + 1, tracked.started)
                        )
                    for failure in failures:
                        record(failure)
                else:
                    for result in results:
                        record(replace(result, attempts=tracked.attempts))
            if job_timeout is not None:
                _expire_overdue(pending, zombies, job_timeout, record)
            dispatch()
    finally:
        pool.shutdown()


def _expire_overdue(
    pending: Dict[Future, _Tracked],
    zombies: Set[Future],
    job_timeout: float,
    record: Callable[[Union[JobResult, JobFailure]], None],
) -> None:
    """Record overdue jobs as timeout failures and stop tracking them.

    An overdue unit is final, never retried: a running future cannot be
    interrupted through ``concurrent.futures``, so a retry would run
    beside it.  It is parked as a zombie that keeps occupying its slot
    until the (discarded) result arrives — and if every slot wedges, the
    caller rebuilds the pool.
    """
    now = monotonic()
    for future, tracked in list(pending.items()):
        if now - tracked.submitted <= job_timeout:
            continue
        del pending[future]
        if not future.cancel():
            zombies.add(future)
        error = TimeoutError(f"job exceeded the {job_timeout:g}s timeout")
        for job in tracked.unit:
            record(
                _failure_from(
                    job, error, tracked.attempts, now - tracked.started
                )
            )
