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

import pytest

from repro import observe
from repro.cad.flow import _disk_cache_path
from repro.cad.route import RoutingError
from repro.core.guardband import GuardbandConfig
from repro.netlists.generator import NetlistSpec
from repro.observe import report as observe_report
from repro.observe.sinks import InMemorySink
from repro.runner import ExperimentSpec, JobFailure, JobResult, run_sweep
from repro.runner import engine as engine_module

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
            assert set(result.phase_seconds) == {"sta", "power", "thermal"}
            assert result.cache_key  # disk cache was on
        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert len(records) == 4
        assert all(r["type"] == "result" for r in records)
        assert records[0]["phase_seconds"]["sta"] > 0.0

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

    def test_corrupt_cache_pickle_quarantined(self, cache_dir):
        spec = ExperimentSpec(benchmarks=(TINY_A,))
        job = spec.expand()[0]
        path = _disk_cache_path(job.resolve_netlist(), job.arch, job.seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"definitely not a pickle")
        from repro.cad import flow as flow_module

        flow_module._FLOW_CACHE.clear()
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok, sweep.failures
        quarantined = list(cache_dir.glob("*.corrupt"))
        assert len(quarantined) == 1
        # The entry was recomputed and re-cached as a valid pickle.
        with open(path, "rb") as handle:
            pickle.load(handle)


class TestParallelSweep:
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
        from repro.cad import flow as flow_module

        flow_module._FLOW_CACHE.clear()  # cold cache: misses are asserted
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
        from repro.cad import flow as flow_module

        flow_module._FLOW_CACHE.clear()  # cold cache: misses are asserted
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
        from repro.cad import flow as flow_module

        flow_module._FLOW_CACHE.clear()
        sweep = run_sweep(spec, workers=1)
        assert sweep.ok
        assert sweep.results[0].cache_events == {"miss": 1, "quarantine": 1}
        assert sweep.cache_totals()["quarantine"] == 1
