"""Asyncio sweep scheduler: dedup, store-first serving, pool dispatch.

The scheduler is the service's brain.  Clients submit
:class:`~repro.runner.spec.ExperimentSpec` grids; each grid cell is
identified by its **store digest** — the same content address
(:func:`repro.store.store_digest` over flow cache key x config x ambient
x corner) the sweep engine persists converged results under.  The digest
is computable *without* running place-and-route
(:func:`repro.cad.flow.flow_cache_key_for` hashes the netlist/arch/seed
identity directly), which is what makes scheduling decisions cheap:

- **store first** — a cell whose digest is already persisted is served
  straight from :class:`~repro.store.ResultStore` at cache-hit latency:
  one ``store.hit`` counter/event, one ``sweep.cell_skipped`` event
  (mirroring the engine's resume semantics), and *zero* ``sweep.cell``
  execution spans — the trace-level contract a repeat submission is
  audited against.
- **in-flight dedup** — a cell another client is already computing is
  *joined*, not recomputed: the late job subscribes to the running
  :class:`_Cell` and receives the same terminal record.  Two clients
  submitting overlapping grids concurrently compute each overlapping
  cell exactly once.
- **pool dispatch** — remaining cells are grouped into same-flow units
  (:func:`repro.runner.engine.batch_units`, the engine's batch grouping)
  and executed on the engine's :class:`~repro.runner.engine.WorkerPool`
  via its own :func:`~repro.runner.engine.run_unit_in_worker`, so
  worker-side numerics, store writes and trace re-parenting are exactly
  the sweep engine's.

Fault tolerance is the engine's, not a copy of it: every failed attempt
goes through :func:`~repro.runner.engine.next_attempt` (bounded retry of
:data:`~repro.runner.engine.RETRYABLE_ERRORS`, a perturbed placement
seed for routing congestion).  At most ``workers`` units hold a pool
slot at once, so a dead worker (``BrokenProcessPool``) charges an
attempt only to the units running on it, and the shared pool rebuilds
once per incident.  Anything that exhausts its budget marks the cell —
and every service job waiting on it — **failed**, never hung.

Threading model: scheduling decisions, observe emissions and broker
publishes all run on one asyncio event loop thread, so
:mod:`repro.observe`'s single-threaded session discipline holds.  The
one piece of blocking IO on the submission path — the store probe — is
batched through ``loop.run_in_executor`` using the instrumentation-free
:meth:`ResultStore.load`, and its ``store.hit``/``store.miss`` events
are replayed on the loop thread afterwards (the ``async-blocking`` lint
rule holds this invariant).  Pool workers attach their own observe
sessions through the propagated
:class:`~repro.observe.context.TraceContext`, exactly as the engine's
workers do.
"""

from __future__ import annotations

import asyncio
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import observe
from repro.cad.flow import flow_cache_key_for
from repro.core.guardband import GuardbandResult
from repro.memo import Memo
from repro.observe.clock import monotonic
from repro.runner.engine import (
    DEFAULT_MAX_RETRIES,
    WorkerPool,
    batch_units,
    next_attempt,
    run_unit_in_worker,
)
from repro.runner.results import JobFailure, JobResult
from repro.runner.spec import ExperimentSpec, SweepJob
from repro.service.events import EventBroker
from repro.store import ResultStore, store_digest

FLOW_KEY_MEMO_SIZE = 256
"""Flow keys the service keeps, one short string per distinct (design,
arch, seed, placement mode): the VTR-19 suite at a few seeds in both
placement modes fits, and a new seed past the bound costs one netlist
resolution, not a place-and-route."""

_flow_keys: Memo[str] = Memo("service.flow_key.memo", FLOW_KEY_MEMO_SIZE)

JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

_FlowIdentity = Tuple[object, ...]


def _flow_identity(job: SweepJob) -> _FlowIdentity:
    """Everything that determines the cell's flow cache key."""
    return (job.benchmark, job.netlist_spec, job.arch, job.seed,
            job.timing_driven, job.config.thermal_weight)


def _hit_record(job: SweepJob, result: GuardbandResult) -> Dict[str, object]:
    """Cell record for a store-served hit.

    A stored :class:`GuardbandResult` does not carry the worst-case
    baseline (that is a property of the placed flow, not of the fixed
    point), so ``worst_case_hz``/``gain`` are absent from store-served
    records; fetch them from a computed record or re-derive from the
    flow when needed.
    """
    return {
        "job_id": job.job_id,
        "benchmark": job.benchmark,
        "t_ambient": job.t_ambient,
        "corner": job.corner,
        "frequency_hz": result.frequency_hz,
        "iterations": result.iterations,
        "total_power_w": result.total_power_w,
        "max_tile_celsius": float(result.tile_temperatures.max()),
        "mean_tile_celsius": float(result.tile_temperatures.mean()),
        "source": "store",
        "ok": True,
    }


def _computed_record(
    outcome: Union[JobResult, JobFailure]
) -> Dict[str, object]:
    record = outcome.to_record()
    record["source"] = "computed"
    record["ok"] = isinstance(outcome, JobResult)
    return record


@dataclass
class _Cell:
    """One in-flight grid cell, shared by every job that wants it."""

    digest: str
    job: SweepJob
    """Representative sweep job — identical cells agree on everything
    the digest covers, so any submitter's expansion will do."""
    subscribers: Set[str] = field(default_factory=set)
    """Service job ids waiting on this cell."""
    record: Optional[Dict[str, object]] = None
    started: float = 0.0


@dataclass
class _Job:
    """One client submission: a spec and the cells it resolved to."""

    job_id: str
    spec: ExperimentSpec
    n_cells: int
    status: str = JOB_RUNNING
    n_done: int = 0
    n_failed: int = 0
    n_store_hits: int = 0
    n_deduped: int = 0
    records: List[Dict[str, object]] = field(default_factory=list)
    submitted: float = 0.0
    finished: Optional[float] = None

    def to_status(self) -> Dict[str, object]:
        return {
            "job_id": self.job_id,
            "status": self.status,
            "n_cells": self.n_cells,
            "n_done": self.n_done,
            "n_failed": self.n_failed,
            "n_store_hits": self.n_store_hits,
            "n_deduped": self.n_deduped,
        }


class SweepScheduler:
    """Digest-deduplicating sweep scheduler over one result store.

    Construct on (or bind to — see :meth:`start`) the serving event
    loop.  ``store`` must be directory-backed: pool workers open their
    own handle onto the shared root, exactly as the sweep engine's
    workers do.
    """

    def __init__(
        self,
        store: ResultStore,
        workers: int = 2,
        max_retries: int = DEFAULT_MAX_RETRIES,
        batch: bool = True,
        broker: Optional[EventBroker] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.store = store
        self.store_path = str(store.root)
        self.workers = workers
        self.max_retries = max_retries
        self.batch = batch
        self.broker = broker if broker is not None else EventBroker()
        self.jobs: Dict[str, _Job] = {}
        self._inflight: Dict[str, _Cell] = {}
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._pool: Optional[WorkerPool] = None
        self._slots: Optional[asyncio.Semaphore] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._next_job = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Bind to the running loop and warm the worker pool."""
        self._loop = asyncio.get_running_loop()
        self.broker.bind(self._loop)
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
            self._slots = asyncio.Semaphore(self.workers)

    async def close(self) -> None:
        """Cancel outstanding dispatches and release the pool."""
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- digests ----------------------------------------------------------

    def digest_for(self, job: SweepJob) -> str:
        """The cell's store digest, without running place-and-route.

        The flow cache key is a pure hash of the resolved netlist,
        architecture and seed (:func:`flow_cache_key_for` folds
        ``timing_driven`` in exactly as ``run_flow`` does), memoized per
        flow identity in ``service.flow_key.memo`` — expanding a
        thousand-cell grid costs one netlist resolution per distinct
        design, not per cell.
        """
        flow_key = _flow_keys.get(
            _flow_identity(job),
            lambda: flow_cache_key_for(
                job.resolve_netlist(), job.arch, job.seed, job.timing_driven,
                job.config.thermal_weight,
            ),
        )
        return store_digest(flow_key, job.config, job.t_ambient, job.corner)

    # -- submission -------------------------------------------------------

    async def submit(self, spec: ExperimentSpec) -> str:
        """Accept one grid; returns the service job id immediately.

        Every cell is resolved to exactly one of three fates before this
        returns: served from the store, joined onto an in-flight
        computation, or dispatched to the pool.  Progress then streams
        through the broker until the job reaches a terminal status.
        """
        if self._loop is None:
            self.start()
        self._next_job += 1
        job_id = f"job-{self._next_job:04d}"
        sweep_jobs = spec.expand()
        job = _Job(
            job_id=job_id,
            spec=spec,
            n_cells=len(sweep_jobs),
            submitted=monotonic(),
        )
        self.jobs[job_id] = job
        self.broker.open_job(job_id)
        self._publish(
            (job_id,), "service.job_accepted",
            job_id=job_id, n_cells=len(sweep_jobs),
        )

        to_probe: List[Tuple[SweepJob, str]] = []
        for sweep_job in sweep_jobs:
            digest = self.digest_for(sweep_job)
            cell = self._inflight.get(digest)
            if cell is not None:
                # Another client's identical cell is mid-computation:
                # join it instead of paying for a second Algorithm 1 run.
                cell.subscribers.add(job_id)
                job.n_deduped += 1
                self._publish(
                    (job_id,), "service.cell_deduplicated",
                    job_id=job_id, cell=sweep_job.job_id, digest=digest,
                )
                continue
            # Register *before* the store probe leaves the loop: a
            # submit racing us during the await below must join this
            # cell, not double-compute it.  Store hits pop the cell
            # again (and pay out to any joiner) in _serve_from_store.
            self._inflight[digest] = _Cell(
                digest=digest,
                job=sweep_job,
                subscribers={job_id},
                started=monotonic(),
            )
            to_probe.append((sweep_job, digest))

        to_run = await self._serve_from_store(job, to_probe)

        units = batch_units(to_run) if self.batch else [[j] for j in to_run]
        for unit in units:
            task = asyncio.ensure_future(self._run_unit(unit))
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
        self._maybe_finish(job)
        return job_id

    # -- store-first serving ----------------------------------------------

    async def _serve_from_store(
        self, job: "_Job", cells: List[Tuple[SweepJob, str]]
    ) -> List[SweepJob]:
        """Serve already-persisted cells; returns those still to compute.

        ``ResultStore`` reads are locked pickle IO and must never run on
        the event loop (the ``async-blocking`` lint invariant): one
        thread-executor round trip probes every candidate digest via the
        instrumentation-free :meth:`ResultStore.load`, then the
        ``store.hit``/``store.miss`` events are replayed on the loop
        thread, preserving :mod:`repro.observe`'s single-threaded
        session discipline.  Cells were registered in ``_inflight``
        before the await, so a hit pays out to every subscriber that
        joined while the probe was in flight.
        """
        if not cells:
            return []
        assert self._loop is not None
        digests = [digest for _, digest in cells]
        try:
            loaded = await self._loop.run_in_executor(
                None, self._probe_store, digests
            )
        except Exception as error:
            # A failed probe round must not wedge the grid: treat every
            # cell as a miss and let the compute path (which converts
            # its own failures into JobFailure records) sort it out.
            observe.event(
                "service.store_probe_failed",
                error_type=type(error).__name__,
                n_cells=len(cells),
            )
            loaded = [(None, "")] * len(cells)
        to_run: List[SweepJob] = []
        for (sweep_job, digest), (stored, kind) in zip(cells, loaded):
            if kind:
                self.store.record_access(kind, digest)
            if stored is None:
                to_run.append(sweep_job)
                continue
            cell = self._inflight.pop(digest, None)
            subscribers = sorted(cell.subscribers) if cell else [job.job_id]
            job.n_store_hits += 1
            observe.counter("sweep.cells.skipped").inc()
            observe.event(
                "sweep.cell_skipped",
                job_id=sweep_job.job_id,
                source="store",
                jobs=subscribers,
            )
            record = _hit_record(sweep_job, stored)
            for subscriber in subscribers:
                sub_job = self.jobs.get(subscriber)
                if sub_job is not None:
                    self._deliver(sub_job, record)
        return to_run

    def _probe_store(
        self, digests: List[str]
    ) -> List[Tuple[Optional[GuardbandResult], str]]:
        """Blocking store reads, batched; runs on an executor thread."""
        return [self.store.load(digest) for digest in digests]

    # -- execution --------------------------------------------------------

    async def _run_unit(self, unit: List[SweepJob]) -> None:
        """Drive one work unit to per-cell terminal records."""
        assert self._loop is not None
        assert self._pool is not None and self._slots is not None
        context = observe.propagation_context()
        started = monotonic()
        attempt: Optional[List[SweepJob]] = unit
        attempts = 0
        outcomes: Sequence[Union[JobResult, JobFailure]] = []
        while attempt is not None:
            attempts += 1
            async with self._slots:
                pool = self._pool.executor
                try:
                    outcomes = [
                        replace(outcome, attempts=attempts)
                        for outcome in await self._loop.run_in_executor(
                            pool, run_unit_in_worker,
                            attempt, context, self.store_path,
                        )
                    ]
                    break
                except Exception as error:
                    if isinstance(error, BrokenProcessPool):
                        self._pool.rebuild(pool)
                    attempt, outcomes = next_attempt(
                        attempt, attempts, error, self.max_retries, started
                    )
        for original, outcome in zip(unit, outcomes):
            self._complete_cell(original, outcome)

    def _complete_cell(
        self, sweep_job: SweepJob, outcome: Union[JobResult, JobFailure]
    ) -> None:
        """Record one terminal cell and fan it out to its subscribers."""
        digest = self.digest_for(sweep_job)
        cell = self._inflight.pop(digest, None)
        subscribers: Tuple[str, ...] = (
            tuple(sorted(cell.subscribers)) if cell is not None else ()
        )
        ok = isinstance(outcome, JobResult)
        observe.counter("sweep.jobs.ok" if ok else "sweep.jobs.failed").inc()
        # The service-side ``sweep.cell`` execution span: one per
        # *computed* cell (store hits and dedup joins never emit one),
        # tagged with every subscribed service job so the bridge streams
        # it to each.  ``python -m repro.observe report`` counts exactly
        # these spans as executed cells.
        observe.emit_span(
            "sweep.cell",
            duration_s=outcome.wall_seconds,
            status="ok" if ok else "error",
            job_id=outcome.job_id,
            benchmark=outcome.benchmark,
            attempts=outcome.attempts,
            jobs=list(subscribers),
            **(
                {}
                if ok
                else {"error_type": outcome.error_type}  # type: ignore[union-attr]
            ),
        )
        record = _computed_record(outcome)
        for job_id in subscribers:
            job = self.jobs.get(job_id)
            if job is None:
                continue
            if not ok:
                job.n_failed += 1
            self._deliver(job, record)

    # -- bookkeeping ------------------------------------------------------

    def _deliver(self, job: _Job, record: Dict[str, object]) -> None:
        job.records.append(record)
        job.n_done += 1
        self._maybe_finish(job)

    def _maybe_finish(self, job: _Job) -> None:
        if job.status != JOB_RUNNING or job.n_done < job.n_cells:
            return
        job.status = JOB_FAILED if job.n_failed else JOB_DONE
        job.finished = monotonic()
        self._publish(
            (job.job_id,), "service.job_finished",
            job_id=job.job_id,
            status=job.status,
            n_done=job.n_done,
            n_failed=job.n_failed,
            n_store_hits=job.n_store_hits,
            n_deduped=job.n_deduped,
            wall_seconds=job.finished - job.submitted,
        )
        self.broker.finish_job(job.job_id)

    def _publish(
        self, jobs: Tuple[str, ...], name: str, **attrs: object
    ) -> None:
        """Service-level lifecycle record: straight to the broker (so
        job streams work even with observability disabled) and, when a
        session is active, into the trace as an untagged event (no
        ``jobs`` attr — the bridge must not deliver it a second time).
        """
        self.broker.publish(
            jobs, {"type": "event", "name": name, "attrs": dict(attrs)}
        )
        observe.event(name, **attrs)

    # -- queries ----------------------------------------------------------

    def status(self, job_id: str) -> Optional[Dict[str, object]]:
        job = self.jobs.get(job_id)
        return None if job is None else job.to_status()

    def result(self, job_id: str) -> Optional[Dict[str, object]]:
        """Current snapshot: status plus every terminal cell record."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        payload = job.to_status()
        payload["cells"] = list(job.records)
        return payload
