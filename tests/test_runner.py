"""Tests for the parallel experiment engine (``repro.runner``).

Failure-path coverage: a raising job is recorded without aborting the
sweep, transient errors retry up to the budget, a corrupt flow-cache
pickle is quarantined, a killed worker degrades to a per-job failure, and
parallel execution is bit-identical to serial.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import time
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from repro import observe
from repro.arch.params import ArchParams
from repro.cad.flow import _disk_cache_path, run_flow
from repro.cad.route import RoutingError
from repro.coffe.fabric import build_fabric
from repro.core.guardband import GuardbandConfig
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec
from repro.observe import report as observe_report
from repro.observe.sinks import InMemorySink
from repro.runner import ExperimentSpec, JobFailure, JobResult, run_sweep
from repro.runner import engine as engine_module
from repro.runner.spec import SweepJob
from repro.store import open_store
from repro.thermal.package import ThermalPackage

TINY_A = NetlistSpec("runner_tiny_a", n_luts=10, depth=3, seed=51,
                     base_activity=0.2)
TINY_B = NetlistSpec("runner_tiny_b", n_luts=12, depth=3, seed=52,
                     base_activity=0.18)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def tiny_spec(**overrides) -> ExperimentSpec:
    defaults = dict(benchmarks=(TINY_A, TINY_B), ambients=(25.0,))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


# Stand-ins for ``_execute_unit(unit, store)``; unbatched sweeps run one
# single-cell unit per job.  Module-level so the process pool can pickle
# them by reference (the forked workers share this module's in-memory
# state).
def _kill_own_worker(unit, store=None):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_job(unit, store=None):
    time.sleep(3.0)


def _slow_ok_job(unit, store=None):
    (job,) = unit
    time.sleep(0.4)
    return [JobResult(
        job_id=job.job_id, benchmark=job.benchmark,
        t_ambient=job.t_ambient, corner=job.corner,
        frequency_hz=1e9, worst_case_hz=5e8, gain=1.0, iterations=1,
        total_power_w=1.0, max_tile_celsius=50.0, mean_tile_celsius=40.0,
        wall_seconds=0.4,
    )]


def _kill_worker_on_tiny_a(unit, store=None):
    if unit[0].benchmark == "runner_tiny_a":
        os.kill(os.getpid(), signal.SIGKILL)
    return _slow_ok_job(unit)


def _kill_one_worker_once(unit, store=None):
    """The first unit to run kills its worker; every unit holds its slot
    for 0.4 s, so the other unit in flight dies with the pool."""
    marker = Path(store).parent / "worker-killed"
    if not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return _slow_ok_job(unit)


def _round_trip(payload):
    return payload


def _congested_at_seed_7(unit, store=None):
    (job,) = unit
    if job.seed == 7:
        raise RoutingError("congested at placement seed 7")
    return [replace(_slow_ok_job(unit)[0], cache_key=f"seed-{job.seed}")]


class TestExperimentSpec:
    def test_grid_expansion(self):
        spec = ExperimentSpec(
            benchmarks=("sha", "bgm"),
            ambients=(25.0, 70.0),
            corners=(25.0, 70.0),
        )
        jobs = spec.expand()
        assert len(jobs) == spec.n_jobs == 8
        assert len({job.job_id for job in jobs}) == 8
        # Benchmark-major: consecutive jobs share a design, so parallel
        # workers queue on one flow-cache lock instead of re-placing.
        assert [j.benchmark for j in jobs[:4]] == ["sha"] * 4

    def test_per_benchmark_base_activity(self):
        spec = ExperimentSpec(benchmarks=("sha", "bgm"))
        configs = {j.benchmark: j.config for j in spec.expand()}
        assert configs["sha"].base_activity == pytest.approx(0.19)
        assert configs["bgm"].base_activity == pytest.approx(0.12)

    def test_explicit_config_applies_uniformly(self):
        config = GuardbandConfig(delta_t=4.0, base_activity=0.3)
        spec = ExperimentSpec(benchmarks=("sha", "bgm"), config=config)
        assert all(j.config == config for j in spec.expand())

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown VTR benchmark"):
            ExperimentSpec(benchmarks=("nonexistent",))

    def test_ambients_outside_fabric_range_rejected(self):
        ExperimentSpec(benchmarks=("sha",), ambients=(0.0, 100.0))
        for ambient in (-0.1, 100.1):
            with pytest.raises(ValueError, match=r"\[0, 100\] C junction range"):
                ExperimentSpec(benchmarks=("sha",), ambients=(ambient,))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(benchmarks=())
        with pytest.raises(ValueError):
            ExperimentSpec(benchmarks=("sha",), ambients=())


class TestSerialSweep:
    def test_records_results_and_streams_jsonl(self, cache_dir, tmp_path):
        jsonl = tmp_path / "out" / "sweep.jsonl"
        jsonl.parent.mkdir()
        sweep = run_sweep(
            tiny_spec(ambients=(25.0, 70.0)), workers=1,
            jsonl_path=str(jsonl),
        )
        assert sweep.ok and sweep.n_jobs == 4
        assert all(isinstance(r, JobResult) for r in sweep.results)
        for result in sweep.results:
            assert result.frequency_hz > result.worst_case_hz > 0
            assert result.cache_key  # disk cache was on
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["type"] == "result" for r in records)

    def test_untraced_sweep_runs_algorithm1_untraced(
        self, cache_dir, monkeypatch
    ):
        seen = []
        batch = engine_module.thermal_aware_guardband_batch

        def recording(*args, **kwargs):
            seen.append(observe.is_enabled())
            return batch(*args, **kwargs)

        monkeypatch.setattr(
            engine_module, "thermal_aware_guardband_batch", recording
        )
        assert run_sweep(tiny_spec(), workers=1).ok
        assert seen == [False, False]

    def test_gain_slices(self, cache_dir):
        sweep = run_sweep(tiny_spec(ambients=(25.0, 70.0)), workers=1)
        assert 0.0 < sweep.mean_gain(t_ambient=70.0) < sweep.mean_gain(
            t_ambient=25.0
        )
        with pytest.raises(ValueError):
            sweep.mean_gain(t_ambient=999.0)

    def test_worker_exception_recorded_not_fatal(self, cache_dir, monkeypatch):
        real = engine_module._execute_unit

        def flaky(unit, store=None):
            if unit[0].benchmark == "runner_tiny_a":
                raise RuntimeError("synthetic job explosion")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", flaky)
        sweep = run_sweep(tiny_spec(), workers=1)
        assert len(sweep.results) == 1 and len(sweep.failures) == 1
        failure = sweep.failures[0]
        assert isinstance(failure, JobFailure)
        assert failure.benchmark == "runner_tiny_a"
        assert failure.error_type == "RuntimeError"
        assert "explosion" in failure.message
        assert failure.attempts == 1  # deterministic errors are not retried
        assert not failure.retryable

    def test_transient_error_retried_until_success(self, cache_dir, monkeypatch):
        real = engine_module._execute_unit
        calls = {"n": 0}

        def congested_once(unit, store=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RoutingError("transient congestion")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", congested_once)
        sweep = run_sweep(
            ExperimentSpec(benchmarks=(TINY_A,)), workers=1, max_retries=2
        )
        assert sweep.ok
        assert sweep.results[0].attempts == 2

    def test_retry_exhaustion_recorded(self, cache_dir, monkeypatch):
        def always_congested(unit, store=None):
            raise RoutingError("permanent congestion")

        monkeypatch.setattr(engine_module, "_execute_unit", always_congested)
        sweep = run_sweep(
            ExperimentSpec(benchmarks=(TINY_A,)), workers=1, max_retries=2
        )
        assert not sweep.results
        failure = sweep.failures[0]
        assert failure.error_type == "RoutingError"
        assert failure.attempts == 3  # first try + 2 retries
        assert failure.retryable

    def test_routing_retry_perturbs_placement_seed(
        self, cache_dir, monkeypatch
    ):
        # The flow is deterministic per seed, so a useful RoutingError
        # retry must explore a different placement.
        real = engine_module._execute_unit
        seeds = []

        def congested_once(unit, store=None):
            seeds.append(unit[0].seed)
            if len(seeds) == 1:
                raise RoutingError("congested at this placement seed")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", congested_once)
        sweep = run_sweep(
            ExperimentSpec(benchmarks=(TINY_A,), seed=7), workers=1,
            max_retries=1,
        )
        assert sweep.ok
        assert seeds == [7, 8]

    def test_jsonl_truncated_per_run(self, cache_dir, tmp_path):
        # Re-running with the same --jsonl path must not mix records from
        # two runs (consumers count lines / aggregate whole files).
        jsonl = tmp_path / "sweep.jsonl"
        run_sweep(tiny_spec(), workers=1, jsonl_path=str(jsonl))
        sweep = run_sweep(tiny_spec(), workers=1, jsonl_path=str(jsonl))
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(records) == sweep.n_jobs == 2

    def test_no_jsonl_path_builds_no_records(self, cache_dir, tmp_path, monkeypatch):
        # Records exist only to be written: without a stream, neither a
        # computed, a failed nor a resumed cell is serialised.
        jsonl = tmp_path / "first.jsonl"
        run_sweep(tiny_spec(), workers=1, jsonl_path=str(jsonl))

        def refuse(self):
            raise AssertionError("to_record called with no JSONL stream")

        monkeypatch.setattr(JobResult, "to_record", refuse)
        monkeypatch.setattr(JobFailure, "to_record", refuse)
        real = engine_module._execute_unit

        def flaky(unit, store=None):
            if unit[0].benchmark == "runner_tiny_a":
                raise RuntimeError("synthetic job explosion")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", flaky)
        sweep = run_sweep(tiny_spec(ambients=(25.0, 70.0)), workers=1)
        assert len(sweep.results) == 2 and len(sweep.failures) == 2
        resumed = run_sweep(tiny_spec(), workers=1, resume_from=str(jsonl))
        assert resumed.n_resumed == 2 and resumed.ok

    def test_jsonl_records_are_the_outcomes_records(self, cache_dir, tmp_path, monkeypatch):
        real = engine_module._execute_unit

        def flaky(unit, store=None):
            if unit[0].benchmark == "runner_tiny_a" and unit[0].t_ambient == 70.0:
                raise RuntimeError("synthetic job explosion")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", flaky)
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        spec = tiny_spec(ambients=(25.0, 70.0))
        for path, resume in ((first, None), (second, str(first))):
            sweep = run_sweep(
                spec, workers=1, jsonl_path=str(path), resume_from=resume
            )
            assert len(sweep.results) == 3 and len(sweep.failures) == 1
            want = {
                o.job_id: json.loads(json.dumps(o.to_record()))
                for o in sweep.results + sweep.failures
            }
            records = [json.loads(line) for line in path.read_text().splitlines()]
            assert len(records) == 4
            assert {r["job_id"]: r for r in records} == want
            for record in records:
                kind = JobResult if record["type"] == "result" else JobFailure
                assert set(record) == {"type"} | {f.name for f in fields(kind)}

    def test_corrupt_cache_pickle_quarantined(self, cache_dir):
        spec = ExperimentSpec(benchmarks=(TINY_A,))
        job = spec.expand()[0]
        path = _disk_cache_path(job.resolve_netlist(), job.arch, job.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not a pickle")
        MEMOS["flow.memo"].clear()
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok, sweep.failures
        quarantined = list(cache_dir.glob("*.corrupt"))
        assert len(quarantined) == 1
        # The entry was recomputed and re-cached as a valid pickle.
        with open(path, "rb") as handle:
            pickle.load(handle)


class TestBaselineMemo:
    """The 100 C worst-case STA runs once per (flow, fabric) per process."""

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Empty the memo and count calls of the engine's
        ``worst_case_frequency``; the memo is emptied again afterwards."""
        calls = []
        real = engine_module.worst_case_frequency

        def counting(flow, fabric, *args, **kwargs):
            calls.append((flow.cache_key, fabric.corner_celsius))
            return real(flow, fabric, *args, **kwargs)

        monkeypatch.setattr(engine_module, "worst_case_frequency", counting)
        MEMOS["sweep.baseline.memo"].clear()
        yield calls
        MEMOS["sweep.baseline.memo"].clear()

    @staticmethod
    def _uncached(job):
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        return worst_case_frequency(flow, build_fabric(job.corner, job.arch))

    def test_looped_sweep_runs_one_baseline_per_flow_and_corner(
        self, cache_dir, counted
    ):
        spec = tiny_spec(
            benchmarks=(TINY_A,), ambients=(20.0, 30.0, 40.0, 50.0)
        )
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok and sweep.n_jobs == 4
        assert len(counted) == 1
        expected = self._uncached(spec.expand()[0])
        for result in sweep.results:
            assert result.worst_case_hz == expected
            assert result.gain == guardband_gain(result.frequency_hz, expected)

    def test_corners_never_share_a_baseline(self, cache_dir, counted):
        spec = tiny_spec(
            benchmarks=(TINY_A,), ambients=(25.0, 45.0), corners=(25.0, 70.0)
        )
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok and sweep.n_jobs == 4
        assert sorted(corner for _, corner in counted) == [25.0, 70.0]
        by_corner = {}
        for job, result in zip(spec.expand(), sweep.results):
            assert result.job_id == job.job_id
            by_corner.setdefault(job.corner, set()).add(result.worst_case_hz)
            assert result.worst_case_hz == self._uncached(job)
        assert len(by_corner[25.0]) == len(by_corner[70.0]) == 1
        assert by_corner[25.0] != by_corner[70.0]


class TestParallelSweep:
    def test_every_job_field_crosses_the_process_pool(self):
        # Serial sweeps never pickle a job; the pool path pickles every
        # field of every job.  Each field gets a non-default value here,
        # and a field added later without one fails the coverage check.
        config_values = dict(
            delta_t=1.5, max_iterations=9, base_activity=0.3,
            package=ThermalPackage(
                g_vertical_w_per_k=4e-5, g_lateral_w_per_k=3e-4
            ),
            thermal_weight=0.5,
            mode="energy", target_frequency_hz=80e6,
        )
        config = GuardbandConfig(**config_values)
        arch = ArchParams(channel_tracks=300)
        spec_values = dict(
            benchmarks=(TINY_A, "sha"), ambients=(40.0, 70.0),
            corners=(0.0, 85.0), arch=arch, config=config, seed=11,
            timing_driven=True, thermal_weight=0.25, mode="energy",
            target_frequency_hz=90e6,
        )
        job_values = dict(
            benchmark=TINY_A.name, t_ambient=40.0, corner=85.0,
            config=config, arch=arch, seed=11, timing_driven=True,
            netlist_spec=TINY_A,
        )
        cases = [
            (GuardbandConfig, config_values),
            (ExperimentSpec, spec_values),
            (SweepJob, job_values),
        ]
        for cls, values in cases:
            assert set(values) == {f.name for f in fields(cls)}, cls
            for f in fields(cls):
                if f.default is not MISSING:
                    assert values[f.name] != f.default, (cls, f.name)
                if f.default_factory is not MISSING:
                    assert values[f.name] != f.default_factory(), (cls, f.name)
        objects = [cls(**values) for cls, values in cases]
        pool = engine_module.WorkerPool(1)
        try:
            returned = pool.executor.submit(_round_trip, objects).result(
                timeout=60.0
            )
        finally:
            pool.shutdown()
        assert returned == objects

    def test_parallel_bit_identical_to_serial(self, cache_dir):
        spec = tiny_spec(ambients=(25.0, 70.0))
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.ok and parallel.ok
        assert serial.frequencies() == parallel.frequencies()
        assert serial.gains() == parallel.gains()
        assert [r.job_id for r in serial.results] == [
            r.job_id for r in parallel.results
        ]

        # With a fresh store each, serial, parallel and batched sweeps
        # compute and persist the same fixed points bit for bit.
        runs = {
            "serial": dict(workers=1),
            "parallel": dict(workers=2),
            "batched": dict(workers=1, batch=True),
        }
        stored = {}
        for name, kwargs in runs.items():
            root = cache_dir / f"store-{name}"
            sweep = run_sweep(spec, store=root, **kwargs)
            assert sweep.ok
            assert {r.store_event for r in sweep.results} == {"miss"}
            assert sweep.frequencies() == serial.frequencies()
            assert [r.iterations for r in sweep.results] == [
                r.iterations for r in serial.results
            ]
            store = open_store(root)
            stored[name] = {
                digest: store.get(digest).tile_temperatures.tobytes()
                for digest in store.digests()
            }
        assert len(stored["serial"]) == spec.n_jobs
        assert stored["parallel"] == stored["serial"]
        assert stored["batched"] == stored["serial"]

    def test_killed_worker_degrades_to_recorded_failure(
        self, cache_dir, monkeypatch
    ):
        # Two jobs so the engine actually takes the pool path (it clamps
        # workers to the job count and runs workers=1 in-process).
        monkeypatch.setattr(engine_module, "_execute_unit", _kill_own_worker)
        sweep = run_sweep(tiny_spec(), workers=2, max_retries=1)
        assert not sweep.results
        assert len(sweep.failures) == 2
        for failure in sweep.failures:
            assert failure.error_type == "BrokenProcessPool"
            assert failure.attempts == 2

    def test_job_timeout_recorded(self, cache_dir, monkeypatch):
        monkeypatch.setattr(engine_module, "_execute_unit", _sleep_job)
        started = time.perf_counter()
        sweep = run_sweep(tiny_spec(), workers=2, job_timeout=0.5)
        assert time.perf_counter() - started < 3.0
        assert not sweep.results
        assert {f.error_type for f in sweep.failures} == {"TimeoutError"}

    def test_queue_wait_not_counted_against_timeout(
        self, cache_dir, monkeypatch
    ):
        # 6 jobs on 2 workers: the last pair starts executing ~0.8s after
        # submission.  With the timeout measured from execution start
        # (bounded dispatch), a 1s budget per 0.4s job never expires; a
        # timeout measured from submission would spuriously kill them.
        monkeypatch.setattr(engine_module, "_execute_unit", _slow_ok_job)
        sweep = run_sweep(
            tiny_spec(ambients=(25.0, 50.0, 70.0)), workers=2,
            job_timeout=1.0,
        )
        assert not sweep.failures, [f.to_record() for f in sweep.failures]
        assert len(sweep.results) == 6

    def test_pool_breakage_spares_queued_jobs_budget(
        self, cache_dir, monkeypatch
    ):
        # Only dispatched cells are charged an attempt when the pool
        # breaks; cells still waiting in the ready queue keep their full
        # budget.  The two tiny_a jobs dispatch first (benchmark-major),
        # kill both workers twice, and exhaust their budget; the queued
        # tiny_b jobs then run on a rebuilt pool and succeed first-try.
        monkeypatch.setattr(
            engine_module, "_execute_unit", _kill_worker_on_tiny_a
        )
        sweep = run_sweep(
            tiny_spec(ambients=(25.0, 70.0)), workers=2, max_retries=1
        )
        assert len(sweep.failures) == 2
        assert all(f.benchmark == "runner_tiny_a" for f in sweep.failures)
        assert all(f.attempts == 2 for f in sweep.failures)
        assert len(sweep.results) == 2
        assert all(r.benchmark == "runner_tiny_b" for r in sweep.results)
        assert all(r.attempts == 1 for r in sweep.results)

    def test_one_dead_worker_costs_one_pool_rebuild(
        self, cache_dir, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(
            engine_module, "_execute_unit", _kill_one_worker_once
        )
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            sweep = run_sweep(
                tiny_spec(ambients=(25.0, 50.0, 70.0)), workers=2,
                max_retries=1, store=str(tmp_path / "store"),
            )
        assert sweep.ok, [f.to_record() for f in sweep.failures]
        assert sorted(r.attempts for r in sweep.results) == [1, 1, 1, 1, 2, 2]
        (rebuilds,) = [
            m for m in sink.metrics() if m["name"] == "sweep.pool_rebuilds"
        ]
        assert rebuilds["value"] == 1.0

    def test_routing_retry_perturbs_placement_seed_on_pool(
        self, cache_dir, monkeypatch
    ):
        monkeypatch.setattr(
            engine_module, "_execute_unit", _congested_at_seed_7
        )
        sweep = run_sweep(tiny_spec(seed=7), workers=2, max_retries=1)
        assert sweep.ok, [f.to_record() for f in sweep.failures]
        assert [r.attempts for r in sweep.results] == [2, 2]
        assert {r.cache_key for r in sweep.results} == {"seed-8"}

    def test_job_timeout_applies_to_a_one_cell_sweep(
        self, cache_dir, monkeypatch
    ):
        # workers is clamped to the unit count; a timeout still needs
        # the pool, since an in-process job cannot be timed out.
        monkeypatch.setattr(engine_module, "_execute_unit", _sleep_job)
        started = time.perf_counter()
        sweep = run_sweep(
            ExperimentSpec(benchmarks=(TINY_A,)), workers=4, job_timeout=0.5
        )
        assert time.perf_counter() - started < 3.0
        (failure,) = sweep.failures
        assert failure.error_type == "TimeoutError"

    def test_progress_callback_sees_every_cell(self, cache_dir):
        seen = []
        sweep = run_sweep(
            tiny_spec(), workers=2,
            progress=lambda outcome, done, total: seen.append(
                (outcome.job_id, done, total)
            ),
        )
        assert sweep.ok
        assert len(seen) == 2
        assert {entry[2] for entry in seen} == {2}
        assert {entry[1] for entry in seen} == {1, 2}


class TestSweepObservability:
    def test_parallel_trace_reconstructs_single_tree(self, cache_dir, tmp_path):
        MEMOS["flow.memo"].clear()  # cold cache: misses are asserted
        trace_path = tmp_path / "trace.jsonl"
        with observe.enabled(jsonl_path=str(trace_path)):
            sweep = run_sweep(tiny_spec(ambients=(25.0, 70.0)), workers=2)
        assert sweep.ok

        trace_file = observe_report.load_traces(str(trace_path))
        assert trace_file.malformed_lines == 0
        assert len(trace_file.traces) == 1
        trace = trace_file.traces[0]
        assert not trace.orphans

        # One sweep.run root with every worker-side unit span re-parented
        # under it, plus the engine's per-cell lifecycle spans.
        (root,) = trace.roots
        assert root.name == "sweep.run"
        assert root.attrs["n_jobs"] == 4
        assert root.attrs["n_ok"] == 4
        child_names = [c.name for c in root.children]
        assert child_names.count("sweep.unit") == 4
        assert child_names.count("sweep.cell") == 4

        # Jobs really ran in forked workers: worker pids differ from the
        # engine pid that wrote sweep.run.
        job_pids = {
            node.record["pid"] for node in trace.spans
            if node.name == "sweep.unit"
        }
        assert root.record["pid"] not in job_pids

        # Worker-side instrumentation made it into the same trace.
        metrics = observe_report.metric_summary(trace)
        assert metrics["counters"]["thermal.solves"] > 0
        assert metrics["counters"]["flow.cache.miss"] >= 2
        assert metrics["counters"]["sweep.jobs.ok"] == 4
        assert observe_report.event_summary(trace)["job.terminal"] == 4

        cells = observe_report.cell_summary(trace)
        assert len(cells) == 4
        assert all(row["status"] == "ok" for row in cells)

    def test_timeout_leaves_terminal_records(
        self, cache_dir, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(engine_module, "_execute_unit", _sleep_job)
        trace_path = tmp_path / "trace.jsonl"
        with observe.enabled(jsonl_path=str(trace_path)):
            sweep = run_sweep(tiny_spec(), workers=2, job_timeout=0.5)
        assert {f.error_type for f in sweep.failures} == {"TimeoutError"}

        trace = observe_report.load_traces(str(trace_path)).traces[0]
        cells = [n for n in trace.spans if n.name == "sweep.cell"]
        assert len(cells) == 2
        assert all(n.status == "error" for n in cells)
        assert all(n.attrs["error_type"] == "TimeoutError" for n in cells)
        terminals = [e for e in trace.events if e["name"] == "job.terminal"]
        assert len(terminals) == 2
        assert all(e["attrs"]["status"] == "TimeoutError" for e in terminals)

    def test_killed_worker_leaves_terminal_and_retry_records(
        self, cache_dir, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(engine_module, "_execute_unit", _kill_own_worker)
        trace_path = tmp_path / "trace.jsonl"
        with observe.enabled(jsonl_path=str(trace_path)):
            sweep = run_sweep(tiny_spec(), workers=2, max_retries=1)
        assert len(sweep.failures) == 2

        trace = observe_report.load_traces(str(trace_path)).traces[0]
        cells = [n for n in trace.spans if n.name == "sweep.cell"]
        assert len(cells) == 2
        assert all(n.attrs["error_type"] == "BrokenProcessPool" for n in cells)
        assert all(n.attrs["attempts"] == 2 for n in cells)
        summary = observe_report.event_summary(trace)
        assert summary["job.terminal"] == 2
        # Each cell burned one retry when the pool broke under it.
        assert summary["job.retry"] == 2
        assert (
            observe_report.metric_summary(trace)["counters"]["sweep.retries"]
            == 2
        )

    def test_serial_retry_emits_retry_event(self, cache_dir, monkeypatch):
        real = engine_module._execute_unit
        calls = {"n": 0}

        def congested_once(unit, store=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RoutingError("transient congestion")
            return real(unit)

        monkeypatch.setattr(engine_module, "_execute_unit", congested_once)
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            sweep = run_sweep(
                ExperimentSpec(benchmarks=(TINY_A,)), workers=1, max_retries=2
            )
        assert sweep.ok
        (retry,) = [e for e in sink.events() if e["name"] == "job.retry"]
        assert retry["attrs"]["attempts"] == 1
        assert retry["attrs"]["error_type"] == "RoutingError"
        (counter,) = [m for m in sink.metrics() if m["name"] == "sweep.retries"]
        assert counter["value"] == 1.0

    def test_cache_events_and_totals(self, cache_dir, tmp_path):
        MEMOS["flow.memo"].clear()  # cold cache: misses are asserted
        jsonl = tmp_path / "sweep.jsonl"
        sweep = run_sweep(
            tiny_spec(ambients=(25.0, 70.0)), workers=1,
            jsonl_path=str(jsonl),
        )
        assert sweep.ok
        # Benchmark-major order: each design's first ambient computes the
        # flow (miss), the second reuses it (hit).
        per_job = [r.cache_events for r in sweep.results]
        assert per_job == [{"miss": 1}, {"hit": 1}, {"miss": 1}, {"hit": 1}]
        assert sweep.cache_totals() == {"hit": 2, "miss": 2, "quarantine": 0}
        assert sweep.to_dict()["cache_totals"] == sweep.cache_totals()
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert [r["cache_events"] for r in records] == per_job

    def test_quarantine_attributed_to_job(self, cache_dir):
        spec = ExperimentSpec(benchmarks=(TINY_A,))
        job = spec.expand()[0]
        path = _disk_cache_path(job.resolve_netlist(), job.arch, job.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not a pickle")
        MEMOS["flow.memo"].clear()
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok
        assert sweep.results[0].cache_events == {"miss": 1, "quarantine": 1}
        assert sweep.cache_totals()["quarantine"] == 1
