"""Equivalence tests for batched Algorithm 1 and the batched sweep engine.

A batch of n cells (:func:`thermal_aware_guardband_batch`) must agree
bit for bit with each cell run alone through
:func:`thermal_aware_guardband` (one kernel serves both, DESIGN.md §12),
isolate diverging cells from their batch-mates, and preserve the
engine's per-cell record/store/resume semantics when enabled through
``run_sweep(batch=True)``.  ``test_guardband_golden.py`` pins both to
recorded outputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observe
from repro.coffe.fabric import build_fabric
from repro.core.guardband import (
    GuardbandConfig,
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec
from repro.observe.sinks import InMemorySink
from repro.runner import ExperimentSpec, JobResult, run_sweep
from repro.runner import engine as engine_module
from repro.store import open_store, store_digest

AMBIENTS = (5.0, 25.0, 45.0, 65.0)

BATCH_A = NetlistSpec("batch_tiny_a", n_luts=10, depth=3, seed=71,
                      base_activity=0.2)
BATCH_B = NetlistSpec("batch_tiny_b", n_luts=12, depth=3, seed=72,
                      base_activity=0.18)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flows"))
    return tmp_path


@pytest.fixture(scope="module")
def looped(tiny_flow, fabric25):
    """Single-cell reference runs, one per ambient."""
    return {
        t: thermal_aware_guardband(tiny_flow, fabric25, t_ambient=t)
        for t in AMBIENTS
    }


def _assert_same(outcome, reference: GuardbandResult) -> None:
    """Bit-identical fixed point: a batch-mate is the cell run alone."""
    assert isinstance(outcome, GuardbandResult)
    assert outcome.frequency_hz == reference.frequency_hz
    assert outcome.critical_path_s == reference.critical_path_s
    assert outcome.iterations == reference.iterations
    assert outcome.total_power_w == reference.total_power_w
    np.testing.assert_array_equal(
        outcome.tile_temperatures, reference.tile_temperatures
    )


class TestBatchEquivalence:
    def test_matches_single_cell_runs(self, tiny_flow, fabric25, looped):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, list(AMBIENTS)
        )
        assert len(outcomes) == len(AMBIENTS)
        for t_ambient, outcome in zip(AMBIENTS, outcomes):
            assert isinstance(outcome, GuardbandResult)
            assert outcome.t_ambient == t_ambient
            _assert_same(outcome, looped[t_ambient])

    def test_randomized_ambients_and_activity(self, tiny_flow, fabric25):
        """Satellite 5: randomized operating points under a non-default
        activity still agree with the looped path per cell."""
        rng = np.random.default_rng(17)
        ambients = sorted(float(t) for t in rng.uniform(0.0, 80.0, size=6))
        config = GuardbandConfig(base_activity=0.45)
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, ambients, config=config
        )
        for t_ambient, outcome in zip(ambients, outcomes):
            _assert_same(
                outcome,
                thermal_aware_guardband(
                    tiny_flow, fabric25, t_ambient, config=config
                ),
            )

    def test_ambients_outside_fabric_range_rejected(
        self, tiny_flow, fabric25
    ):
        low, high = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [0.0, 100.0]
        )
        assert isinstance(low, GuardbandResult)
        # Both edges are accepted ambients; a die that self-heats past the
        # tables then fails in its own slot, not with a ValueError.
        assert isinstance(high, GuardbandError)
        assert "100 C table limit" in str(high)
        for ambient in (-0.1, 100.1):
            with pytest.raises(ValueError, match=r"\[0, 100\] C junction range"):
                thermal_aware_guardband_batch(
                    tiny_flow, fabric25, [25.0, ambient]
                )

    def test_other_corner_fabric(self, tiny_flow, fabric70):
        """The batch is generic in the fabric corner it runs against."""
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric70, [25.0, 55.0]
        )
        for t_ambient, outcome in zip((25.0, 55.0), outcomes):
            _assert_same(
                outcome, thermal_aware_guardband(tiny_flow, fabric70, t_ambient)
            )

    def test_histories_match_looped_trajectories(
        self, tiny_flow, fabric25, looped
    ):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, list(AMBIENTS)
        )
        for t_ambient, outcome in zip(AMBIENTS, outcomes):
            reference = looped[t_ambient]
            assert len(outcome.history) == len(reference.history)
            for got, want in zip(outcome.history, reference.history):
                assert got.frequency_hz == want.frequency_hz
                assert got.total_power_w == want.total_power_w
                assert got.max_delta_celsius == want.max_delta_celsius

    def test_single_cell_batch_matches_single_run(
        self, tiny_flow, fabric25, looped
    ):
        (outcome,) = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0]
        )
        _assert_same(outcome, looped[25.0])

    def test_empty_batch(self, tiny_flow, fabric25):
        assert thermal_aware_guardband_batch(tiny_flow, fabric25, []) == []

    def test_results_do_not_alias_each_other(self, tiny_flow, fabric25):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0, 45.0]
        )
        a, b = outcomes
        assert isinstance(a, GuardbandResult)
        assert isinstance(b, GuardbandResult)
        assert not np.shares_memory(a.tile_temperatures, b.tile_temperatures)

    def test_mixed_convergence_speeds(self, tiny_flow, fabric25):
        """A fast cell drops out of the batch early; the slower
        batch-mates still converge to their own fixed points."""
        # A tight threshold over a wide ambient span spreads the
        # iteration counts (3 at 5 C, 4 at 65 C on this design).
        config = GuardbandConfig(delta_t=0.01)
        ambients = [5.0, 25.0, 65.0]
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, ambients, config=config
        )
        counts = [o.iterations for o in outcomes]
        assert len(set(counts)) > 1, "every cell converged together"
        for t_ambient, outcome in zip(ambients, outcomes):
            _assert_same(
                outcome,
                thermal_aware_guardband(
                    tiny_flow, fabric25, t_ambient, config=config
                ),
            )

    def test_diverging_cell_does_not_poison_batch_mates(
        self, tiny_flow, fabric25
    ):
        """With the budget set to the fast cell's iteration count, the
        slow cell diverges while its batch-mate still converges and
        returns the correct fixed point."""
        tight = GuardbandConfig(delta_t=0.01)
        fast, slow = (
            thermal_aware_guardband(tiny_flow, fabric25, t, config=tight)
            for t in (5.0, 65.0)
        )
        assert fast.iterations < slow.iterations, (
            "fixture no longer exercises this"
        )
        config = tight.with_changes(max_iterations=fast.iterations)
        converged, diverged = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [5.0, 65.0], config=config
        )
        assert isinstance(diverged, GuardbandError)
        assert isinstance(converged, GuardbandResult)
        assert "did not converge" in str(diverged)
        _assert_same(
            converged,
            thermal_aware_guardband(tiny_flow, fabric25, 5.0, config=config),
        )

    def test_diverged_cell_carries_diagnostics(
        self, tiny_flow, fabric25, looped
    ):
        reference = looped[25.0]
        budget = reference.iterations - 1
        config = GuardbandConfig(max_iterations=budget)
        (outcome,) = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0], config=config
        )
        assert isinstance(outcome, GuardbandError)
        assert outcome.iterations == budget
        assert len(outcome.history) == budget
        assert outcome.t_ambient == 25.0
        assert outcome.last_temperatures is not None
        assert outcome.last_temperatures.shape == (tiny_flow.n_tiles,)
        assert outcome.last_max_delta_celsius is not None
        assert outcome.last_max_delta_celsius > config.delta_t

    def test_all_cells_diverge_like_looped_path(self, tiny_flow, fabric25):
        from repro.thermal.package import ThermalPackage

        weak = ThermalPackage(g_vertical_w_per_k=1e-6, g_lateral_w_per_k=1e-5)
        config = GuardbandConfig(delta_t=0.05, max_iterations=2, package=weak)
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0, 45.0], config=config
        )
        assert all(isinstance(o, GuardbandError) for o in outcomes)


class TestLoopedErrorDiagnostics:
    def test_looped_raise_carries_partial_state(self, tiny_flow, fabric25):
        from repro.thermal.package import ThermalPackage

        weak = ThermalPackage(g_vertical_w_per_k=1e-6, g_lateral_w_per_k=1e-5)
        with pytest.raises(GuardbandError) as info:
            thermal_aware_guardband(
                tiny_flow, fabric25, 25.0,
                config=GuardbandConfig(
                    delta_t=0.05, max_iterations=2, package=weak
                ),
            )
        error = info.value
        assert error.iterations == 2
        assert len(error.history) == 2
        assert error.t_ambient == 25.0
        assert error.last_temperatures is not None
        assert error.last_temperatures.shape == (tiny_flow.n_tiles,)
        assert error.last_max_delta_celsius == pytest.approx(
            error.history[-1].max_delta_celsius
        )

    def test_bare_message_still_constructs(self):
        error = GuardbandError("nope")
        assert error.history == []
        assert error.last_temperatures is None
        assert error.iterations == 0
        assert error.last_max_delta_celsius is None


class TestActivityMemoInAlgorithm1:
    """A memo hit hands Algorithm 1 the same activities as the kernel."""

    @pytest.fixture(scope="class")
    def sha_flow(self, arch):
        from repro.cad.flow import run_flow
        from repro.netlists.vtr_suite import vtr_benchmark

        return run_flow(vtr_benchmark("sha"), arch)

    @pytest.mark.parametrize("mode", ["frequency", "energy"])
    @pytest.mark.parametrize("design", ["tiny", "sha"])
    def test_cold_and_warm_memo_agree(
        self, design, mode, tiny_flow, sha_flow, fabric25
    ):
        from repro.core.margins import worst_case_frequency

        flow, base = (tiny_flow, 0.2) if design == "tiny" else (sha_flow, 0.19)
        config = GuardbandConfig(base_activity=base)
        if mode == "energy":
            config = GuardbandConfig(
                base_activity=base, mode="energy",
                target_frequency_hz=worst_case_frequency(flow, fabric25),
            )

        def run():
            sink = InMemorySink()
            with observe.enabled(sink=sink):
                result = thermal_aware_guardband(flow, fabric25, 25.0, config=config)
            hits = [m for m in sink.metrics() if m["name"] == "activity.memo.hit"]
            return result, sum(m["value"] for m in hits)

        MEMOS["activity.memo"].clear()
        cold, cold_hits = run()
        warm, warm_hits = run()
        assert (cold_hits, warm_hits) == (0, 1)
        assert warm.frequency_hz == cold.frequency_hz
        assert warm.iterations == cold.iterations
        assert warm.vdd_v == cold.vdd_v
        assert warm.tile_temperatures.tobytes() == cold.tile_temperatures.tobytes()


class TestBatchedPowerModel:
    @pytest.fixture(scope="class")
    def model(self, tiny_flow, fabric25):
        from repro.activity.ace import estimate_activity
        from repro.power.model import PowerModel

        activity = estimate_activity(tiny_flow.netlist, 0.2)
        return PowerModel(tiny_flow, fabric25, activity)

    def test_leakage_batch_bitwise_matches_rows(self, model, tiny_flow):
        rng = np.random.default_rng(3)
        t_batch = 25.0 + 40.0 * rng.random((5, tiny_flow.n_tiles))
        batched = model.leakage_power_batch(t_batch)
        for c in range(5):
            np.testing.assert_array_equal(
                batched[c], model.leakage_power(t_batch[c])
            )

    def test_dynamic_batch_matches_rows(self, model):
        freqs = np.array([1e8, 3e8, 7.5e8])
        batched = model.dynamic_power_batch(freqs)
        # Not bit for bit: BLAS blocking depends on the row count, and on
        # sha a 3-row batch differs from a batch of one by up to 2e-16
        # relative.
        for c, f in enumerate(freqs):
            np.testing.assert_allclose(
                batched[c], model.dynamic_power(float(f)), rtol=1e-12
            )

    def test_dynamic_batch_rejects_bad_input(self, model):
        with pytest.raises(ValueError, match="1-D"):
            model.dynamic_power_batch(np.ones((2, 2)))
        with pytest.raises(ValueError, match="negative"):
            model.dynamic_power_batch(np.array([1e8, -1.0]))

    def test_evaluate_batch_shape_checks(self, model, tiny_flow):
        with pytest.raises(ValueError, match="match"):
            model.evaluate_batch(
                np.array([1e8]), np.full((2, tiny_flow.n_tiles), 25.0)
            )
        with pytest.raises(ValueError, match="batch shape"):
            model.evaluate_batch(
                np.array([1e8, 2e8]), np.full((2, 3), 25.0)
            )

    def test_breakdown_totals_cached(self, model, tiny_flow):
        breakdown = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 30.0))
        assert breakdown.total_w is breakdown.total_w
        np.testing.assert_array_equal(
            breakdown.total_w, breakdown.dynamic_w + breakdown.leakage_w
        )
        assert breakdown.total_watts == breakdown.total_watts
        assert breakdown.total_watts == float(breakdown.total_w.sum())

    def test_caches_do_not_leak_between_breakdowns(self, model, tiny_flow):
        cool = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 25.0))
        hot = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 80.0))
        assert cool.total_watts < hot.total_watts
        assert cool.total_w is not hot.total_w

    def test_per_cell_totals(self, model, tiny_flow):
        t_batch = np.full((3, tiny_flow.n_tiles), 30.0)
        freqs = np.array([1e8, 2e8, 3e8])
        breakdown = model.evaluate_batch(freqs, t_batch)
        per_cell = breakdown.total_watts_per_cell()
        assert per_cell.shape == (3,)
        assert breakdown.total_watts == pytest.approx(per_cell.sum())
        single = model.evaluate(2e8, t_batch[1])
        assert per_cell[1] == pytest.approx(single.total_watts, rel=1e-12)

    def test_per_cell_totals_reject_single(self, model, tiny_flow):
        single = model.evaluate(2e8, np.full(tiny_flow.n_tiles, 30.0))
        with pytest.raises(ValueError, match="batched"):
            single.total_watts_per_cell()

    def test_iteration_telemetry_bit_identical_across_runs(
        self, tiny_flow, fabric25
    ):
        """Regression for the total-power caching: the looped path's
        per-iteration telemetry must stay deterministic bit for bit."""
        first = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        second = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        assert first.frequency_hz == second.frequency_hz
        assert first.total_power_w == second.total_power_w
        assert len(first.history) == len(second.history)
        for a, b in zip(first.history, second.history):
            assert a.frequency_hz == b.frequency_hz
            assert a.total_power_w == b.total_power_w
            assert a.max_tile_celsius == b.max_tile_celsius
            assert a.mean_tile_celsius == b.mean_tile_celsius
            assert a.max_delta_celsius == b.max_delta_celsius


def _batch_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        benchmarks=(BATCH_A, BATCH_B), ambients=(15.0, 30.0, 45.0)
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestBatchedSweep:
    def test_groups_same_flow_cells(self):
        jobs = _batch_spec().expand()
        units = engine_module.batch_units(jobs)
        # One unit per (benchmark, corner) pair, holding every ambient.
        assert [len(unit) for unit in units] == [3, 3]
        for unit in units:
            assert len({job.benchmark for job in unit}) == 1
            assert len({job.t_ambient for job in unit}) == 3

    def test_different_corners_not_grouped(self):
        jobs = _batch_spec(corners=(25.0, 70.0)).expand()
        units = engine_module.batch_units(jobs)
        for unit in units:
            assert len({(job.benchmark, job.corner) for job in unit}) == 1

    def test_batched_matches_looped_sweep(self, cache_dir):
        spec = _batch_spec()
        loop = run_sweep(spec, workers=1)
        batch = run_sweep(spec, workers=1, batch=True)
        assert loop.ok and batch.ok
        assert [r.job_id for r in batch.results] == [
            r.job_id for r in loop.results
        ]
        for a, b in zip(loop.results, batch.results):
            # One kernel serves both (DESIGN.md §12): bit-identical.
            assert b.frequency_hz == a.frequency_hz
            assert b.iterations == a.iterations
            assert b.worst_case_hz == a.worst_case_hz

    def test_parallel_batched_matches_serial_batched(self, cache_dir):
        spec = _batch_spec()
        serial = run_sweep(spec, workers=1, batch=True)
        parallel = run_sweep(spec, workers=2, batch=True)
        assert serial.ok and parallel.ok
        assert parallel.frequencies() == serial.frequencies()

    def test_per_cell_records_and_store_writes(self, cache_dir, tmp_path):
        spec = _batch_spec()
        store_root = tmp_path / "store"
        jsonl = tmp_path / "sweep.jsonl"
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            sweep = run_sweep(
                spec, workers=1, batch=True,
                store=str(store_root), jsonl_path=str(jsonl),
            )
        assert sweep.ok
        # One JSONL line and one sweep.cell span per cell, not per batch.
        lines = [l for l in jsonl.read_text().splitlines() if l.strip()]
        assert len(lines) == spec.n_jobs
        cells = [s for s in sink.spans() if s["name"] == "sweep.cell"]
        assert len(cells) == spec.n_jobs
        # One store entry per cell.
        assert len(open_store(store_root).digests()) == spec.n_jobs
        assert sweep.store_totals() == {"hit": 0, "miss": spec.n_jobs}

    def test_store_hits_served_per_cell(self, cache_dir, tmp_path):
        spec = _batch_spec()
        store_root = str(tmp_path / "store")
        first = run_sweep(spec, workers=1, batch=True, store=store_root)
        again = run_sweep(spec, workers=1, batch=True, store=store_root)
        assert first.ok and again.ok
        assert again.store_totals() == {"hit": spec.n_jobs, "miss": 0}
        assert again.frequencies() == first.frequencies()

    def test_partial_store_hits_batch_only_remainder(
        self, cache_dir, tmp_path
    ):
        spec = _batch_spec(benchmarks=(BATCH_A,))
        store_root = str(tmp_path / "store")
        # Pre-populate exactly one cell through the looped path.
        one = ExperimentSpec(benchmarks=(BATCH_A,), ambients=(30.0,))
        assert run_sweep(one, workers=1, store=store_root).ok
        sweep = run_sweep(spec, workers=1, batch=True, store=store_root)
        assert sweep.ok
        assert sweep.store_totals() == {"hit": 1, "miss": spec.n_jobs - 1}
        hit = sweep.result_for(BATCH_A.name, 30.0, 25.0)
        assert hit is not None and hit.store_event == "hit"

    def test_resume_skips_batched_cells(self, cache_dir, tmp_path):
        spec = _batch_spec()
        jsonl = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, workers=1, batch=True, jsonl_path=str(jsonl))
        assert first.ok
        resumed = run_sweep(
            spec, workers=1, batch=True, resume_from=str(jsonl),
        )
        assert resumed.ok and resumed.n_resumed == spec.n_jobs
        assert resumed.frequencies() == first.frequencies()

    def test_diverged_cell_recorded_with_diagnostics(self, cache_dir):
        # A one-iteration budget with a tight threshold: every cell
        # diverges, and each failure record carries the partial state.
        spec = _batch_spec(
            benchmarks=(BATCH_A,),
            config=GuardbandConfig(delta_t=0.01, max_iterations=1),
        )
        sweep = run_sweep(spec, workers=1, batch=True)
        assert len(sweep.failures) == spec.n_jobs
        for failure in sweep.failures:
            assert failure.error_type == "GuardbandError"
            assert failure.diagnostics["iterations"] == 1
            assert failure.diagnostics["last_max_delta_celsius"] > 0.01

    def test_looped_failure_records_diagnostics_in_jsonl(
        self, cache_dir, tmp_path
    ):
        spec = ExperimentSpec(
            benchmarks=(BATCH_A,), ambients=(25.0,),
            config=GuardbandConfig(delta_t=0.01, max_iterations=1),
        )
        jsonl = tmp_path / "sweep.jsonl"
        sweep = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert len(sweep.failures) == 1
        import json

        (record,) = [
            json.loads(line)
            for line in jsonl.read_text().splitlines()
            if line.strip()
        ]
        assert record["type"] == "failure"
        assert record["diagnostics"]["iterations"] == 1
        assert record["diagnostics"]["last_max_delta_celsius"] > 0.01

    def test_mixed_success_and_failure_in_one_batch(self, cache_dir, tmp_path):
        """Per-cell isolation end-to-end: one batched work unit records
        JobResults and JobFailures side by side — a store-served cell
        succeeds while its batch-mates exhaust a one-iteration budget."""
        tight = GuardbandConfig(delta_t=0.01, max_iterations=1)
        store_root = str(tmp_path / "store")
        # Converge one cell outside the budget constraint and persist it
        # under the digest the tight-config sweep will look up.
        from repro.cad.flow import run_flow

        (job,) = ExperimentSpec(
            benchmarks=(BATCH_A,), ambients=(30.0,), config=tight
        ).expand()
        flow = run_flow(job.resolve_netlist(), job.arch, seed=job.seed)
        converged = thermal_aware_guardband(
            flow, build_fabric(job.corner, job.arch),
            t_ambient=30.0,
        )
        store = open_store(store_root)
        store.put(
            store_digest(flow.cache_key, tight, 30.0, job.corner), converged
        )
        sweep = run_sweep(
            _batch_spec(benchmarks=(BATCH_A,), config=tight),
            workers=1, batch=True, store=store_root,
        )
        assert [r.t_ambient for r in sweep.results] == [30.0]
        assert sweep.results[0].store_event == "hit"
        assert {f.t_ambient for f in sweep.failures} == {15.0, 45.0}
        assert all(
            f.error_type == "GuardbandError" for f in sweep.failures
        )


class TestBatchedJobRouting:
    def test_single_cell_units_route_through_execute_unit(
        self, cache_dir, monkeypatch
    ):
        """Monkeypatched ``_execute_unit`` intercepts batch=True sweeps
        whose groups are singletons, one unit per cell."""
        seen = []

        def fake(unit, store=None):
            assert len(unit) == 1
            (job,) = unit
            seen.append(job.job_id)
            return [JobResult(
                job_id=job.job_id, benchmark=job.benchmark,
                t_ambient=job.t_ambient, corner=job.corner,
                frequency_hz=1e9, worst_case_hz=5e8, gain=1.0,
                iterations=1, total_power_w=1.0, max_tile_celsius=50.0,
                mean_tile_celsius=40.0, wall_seconds=0.0,
            )]

        monkeypatch.setattr(engine_module, "_execute_unit", fake)
        spec = ExperimentSpec(
            benchmarks=(BATCH_A, BATCH_B), ambients=(25.0,)
        )
        sweep = run_sweep(spec, workers=1, batch=True)
        assert sweep.ok
        assert sorted(seen) == sorted(j.job_id for j in spec.expand())

    def test_batch_failure_falls_back_per_job(self, cache_dir, monkeypatch):
        """A unit-level crash (not a per-cell divergence) records one
        failure per member cell."""

        def boom(jobs, store=None):
            raise RuntimeError("batch infrastructure crashed")

        monkeypatch.setattr(engine_module, "_execute_unit", boom)
        spec = _batch_spec(benchmarks=(BATCH_A,))
        sweep = run_sweep(spec, workers=1, batch=True)
        assert len(sweep.failures) == spec.n_jobs
        assert all(
            f.error_type == "RuntimeError" for f in sweep.failures
        )
        assert {f.job_id for f in sweep.failures} == {
            j.job_id for j in spec.expand()
        }
