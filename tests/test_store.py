"""Tests for the persistent result store and checkpoint/resume sweeps.

Coverage: digest determinism/sensitivity, put/get round-trip, corruption
quarantine, concurrent multi-process writers, resume skipping completed
cells (asserted through the observe trace), and a killed-mid-sweep
subprocess that resumes without re-executing any recorded cell.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import observe
from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.netlists.generator import NetlistSpec
from repro.observe.sinks import InMemorySink
from repro.runner import ExperimentSpec, SweepResult, run_sweep
from repro.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    open_store,
    store_digest,
)
from repro.store import store as store_module

TINY_A = NetlistSpec("store_tiny_a", n_luts=10, depth=3, seed=61,
                     base_activity=0.2)
TINY_B = NetlistSpec("store_tiny_b", n_luts=12, depth=3, seed=62,
                     base_activity=0.18)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "flows"))
    return tmp_path


@pytest.fixture(scope="module")
def converged(tiny_flow, fabric25):
    return thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)


class TestStoreDigest:
    CONFIG = GuardbandConfig()

    def test_deterministic(self):
        a = store_digest("flowkey", self.CONFIG, 25.0, 25.0)
        b = store_digest("flowkey", self.CONFIG, 25.0, 25.0)
        assert a == b and len(a) == 64

    def test_sensitive_to_every_input(self):
        base = store_digest("flowkey", self.CONFIG, 25.0, 25.0)
        assert store_digest("other", self.CONFIG, 25.0, 25.0) != base
        assert store_digest("flowkey", self.CONFIG, 30.0, 25.0) != base
        assert store_digest("flowkey", self.CONFIG, 25.0, 70.0) != base
        changed = replace(self.CONFIG, delta_t=self.CONFIG.delta_t + 1.0)
        assert store_digest("flowkey", changed, 25.0, 25.0) != base
        weighted = replace(self.CONFIG, thermal_weight=0.5)
        assert store_digest("flowkey", weighted, 25.0, 25.0) != base

    def test_schema_version_invalidates(self, monkeypatch):
        base = store_digest("flowkey", self.CONFIG, 25.0, 25.0)
        monkeypatch.setattr(
            store_module, "STORE_SCHEMA_VERSION", STORE_SCHEMA_VERSION + 1
        )
        assert store_digest("flowkey", self.CONFIG, 25.0, 25.0) != base

    def test_rejects_empty_flow_key(self):
        with pytest.raises(ValueError, match="flow cache key"):
            store_digest("", self.CONFIG, 25.0, 25.0)


class TestResultStore:
    def test_round_trip(self, tmp_path, converged):
        store = open_store(tmp_path / "store")
        digest = store_digest("k", GuardbandConfig(), 25.0, 25.0)
        assert store.get(digest) is None
        assert digest not in store
        store.put(digest, converged)
        assert digest in store and len(store) == 1
        loaded = store.get(digest)
        assert loaded is not None
        assert loaded.frequency_hz == converged.frequency_hz
        assert loaded.iterations == converged.iterations
        np.testing.assert_array_equal(
            loaded.tile_temperatures, converged.tile_temperatures
        )

    def test_put_rejects_non_results(self, tmp_path):
        store = open_store(tmp_path / "store")
        with pytest.raises(TypeError, match="GuardbandResult"):
            store.put("d" * 64, {"not": "a result"})

    def test_corrupt_entry_quarantined(self, tmp_path, converged):
        store = open_store(tmp_path / "store")
        digest = store_digest("k", GuardbandConfig(), 25.0, 25.0)
        store.put(digest, converged)
        store.path_for(digest).write_bytes(b"torn write garbage")
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            assert store.get(digest) is None
        counters = {r["name"]: r["value"] for r in sink.metrics()}
        assert counters == {"store.quarantine": 1.0}
        corrupt = store.path_for(digest).with_name(
            store.path_for(digest).name + ".corrupt"
        )
        assert corrupt.exists()
        assert digest not in store

    def test_wrong_type_pickle_quarantined(self, tmp_path, converged):
        import pickle

        store = open_store(tmp_path / "store")
        digest = "a" * 64
        store.path_for(digest).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(digest).write_bytes(pickle.dumps({"not": "result"}))
        assert store.get(digest) is None
        assert digest not in store

    def test_plain_pickle_entry_is_a_hit(self, tmp_path, converged):
        # The on-disk format is ``<root>/<digest>.pkl`` holding exactly
        # ``pickle.dumps(result)``: directories written that way load.
        import pickle

        store = open_store(tmp_path / "store")
        digest = store_digest("k", GuardbandConfig(), 25.0, 25.0)
        (tmp_path / "store" / f"{digest}.pkl").write_bytes(
            pickle.dumps(converged)
        )
        loaded, kind = store.load(digest)
        assert kind == "hit"
        assert loaded is not None
        assert loaded.frequency_hz == converged.frequency_hz
        store.put(digest, converged)
        assert store.path_for(digest).read_bytes() == pickle.dumps(converged)

    def test_digests_listing_skips_noise(self, tmp_path, converged):
        store = open_store(tmp_path / "store")
        digest = store_digest("k", GuardbandConfig(), 25.0, 25.0)
        store.put(digest, converged)
        (store.root / "stray.txt").write_text("x")
        (store.root / ".hidden.pkl").write_text("x")
        assert store.digests() == [digest]

    def test_concurrent_writers_one_winner(self, tmp_path, converged):
        store_root = tmp_path / "store"
        digest = store_digest("k", GuardbandConfig(), 25.0, 25.0)
        procs = [
            multiprocessing.Process(
                target=_put_entry, args=(str(store_root), digest, converged)
            )
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ResultStore(store_root)
        loaded = store.get(digest)
        assert loaded is not None
        assert loaded.frequency_hz == converged.frequency_hz
        # No tmp or lock debris counted as entries.
        assert store.digests() == [digest]


def _put_entry(root, digest, result):
    open_store(root).put(digest, result)


def _sweep_spec(**overrides) -> ExperimentSpec:
    defaults = dict(benchmarks=(TINY_A, TINY_B), ambients=(25.0, 40.0))
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _executed_and_skipped(sink: InMemorySink):
    executed = [r for r in sink.spans() if r.get("name") == "sweep.cell"]
    skipped = [
        r for r in sink.events() if r.get("name") == "sweep.cell_skipped"
    ]
    return executed, skipped


class TestSweepStoreAndResume:
    def test_store_hits_skip_algorithm1(self, cache_dir, tmp_path):
        spec = _sweep_spec()
        store = str(tmp_path / "store")
        first = run_sweep(spec, workers=1, store=store)
        assert first.ok
        assert first.store_totals() == {"hit": 0, "miss": spec.n_jobs}

        again = run_sweep(spec, workers=1, store=store)
        assert again.ok
        assert again.store_totals() == {"hit": spec.n_jobs, "miss": 0}
        assert again.frequencies() == first.frequencies()

        # A fresh store written by the same grid holds the same bytes.
        fresh = str(tmp_path / "fresh")
        assert run_sweep(spec, workers=1, store=fresh).ok
        written = open_store(store).digests()
        assert open_store(fresh).digests() == written
        for digest in written:
            assert (
                ResultStore(fresh).path_for(digest).read_bytes()
                == ResultStore(store).path_for(digest).read_bytes()
            )

    def test_resume_skips_completed_cells(self, cache_dir, tmp_path):
        spec = _sweep_spec()
        jsonl = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert first.ok

        sink = InMemorySink()
        with observe.enabled(sink=sink):
            resumed = run_sweep(
                spec, workers=1, resume_from=str(jsonl),
                jsonl_path=str(tmp_path / "resumed.jsonl"),
            )
        executed, skipped = _executed_and_skipped(sink)
        assert resumed.ok
        assert resumed.n_resumed == spec.n_jobs
        assert executed == []
        assert len(skipped) == spec.n_jobs
        assert all(s["attrs"].get("source") == "resume" for s in skipped)
        assert resumed.frequencies() == first.frequencies()
        assert resumed.gains() == first.gains()

    def test_partial_resume_executes_only_remainder(self, cache_dir, tmp_path):
        spec = _sweep_spec()
        jsonl = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert first.ok

        lines = jsonl.read_text().splitlines(keepends=True)
        k = 2
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text("".join(lines[:k]))

        sink = InMemorySink()
        with observe.enabled(sink=sink):
            resumed = run_sweep(spec, workers=1, resume_from=str(truncated))
        executed, skipped = _executed_and_skipped(sink)
        assert resumed.ok and resumed.n_resumed == k
        assert len(executed) == spec.n_jobs - k
        assert len(skipped) == k
        assert resumed.frequencies() == first.frequencies()

    def test_resume_tolerates_torn_trailing_line(self, cache_dir, tmp_path):
        spec = _sweep_spec()
        jsonl = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, workers=1, jsonl_path=str(jsonl))
        assert first.ok
        with open(jsonl, "a", encoding="utf-8") as handle:
            handle.write('{"type": "result", "job_id": "torn')
        resumed = run_sweep(spec, workers=1, resume_from=str(jsonl))
        assert resumed.ok and resumed.n_resumed == spec.n_jobs

    def test_jsonl_round_trip(self, cache_dir, tmp_path):
        spec = _sweep_spec()
        out = tmp_path / "saved.jsonl"
        first = run_sweep(spec, workers=1, jsonl_path=str(out))
        loaded = SweepResult.from_jsonl(out)
        assert loaded.frequencies() == first.frequencies()
        assert loaded.gains() == first.gains()
        assert {r.job_id for r in loaded.results} == {
            r.job_id for r in first.results
        }

    def test_killed_mid_sweep_then_resume(self, cache_dir, tmp_path):
        """Integration: SIGKILL a live sweep, resume, re-execute only
        the cells the dead run never recorded."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        jsonl = run_dir / "sweep.jsonl"
        script = textwrap.dedent(
            f"""
            import sys
            sys.path.insert(0, {SRC_DIR!r})
            from repro.api import ExperimentSpec, run_sweep
            from repro.netlists.generator import NetlistSpec

            spec = ExperimentSpec(
                benchmarks=(
                    NetlistSpec("store_tiny_a", n_luts=10, depth=3, seed=61,
                                base_activity=0.2),
                    NetlistSpec("store_tiny_b", n_luts=12, depth=3, seed=62,
                                base_activity=0.18),
                ),
                ambients=(25.0, 40.0),
            )
            run_sweep(spec, workers=1, jsonl_path={str(jsonl)!r})
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        # A file, not a pipe that nobody reads and that can fill; the
        # child keeps its own descriptor once ours is closed.
        stderr_path = tmp_path / "child.stderr"
        with open(stderr_path, "wb") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.DEVNULL, stderr=stderr,
            )
        try:
            # Wait for at least one complete record, then kill mid-run.
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if child.poll() is not None:
                    break  # finished before we struck — still a valid resume
                if jsonl.exists() and jsonl.read_text().count("\n") >= 1:
                    child.send_signal(signal.SIGKILL)
                    break
                time.sleep(0.02)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=60)

        assert jsonl.exists(), (
            f"the child wrote no record (exit {child.returncode}); its "
            f"stderr ends:\n{stderr_path.read_text(errors='replace')[-2000:]}"
        )
        recorded = SweepResult.from_jsonl(jsonl)
        k = len(recorded.results)
        assert k >= 1

        spec = _sweep_spec()
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            resumed = run_sweep(spec, workers=1, resume_from=str(jsonl))
        executed, skipped = _executed_and_skipped(sink)
        assert resumed.ok
        assert resumed.n_resumed == k
        assert len(executed) == spec.n_jobs - k
        assert len(skipped) == k
        executed_ids = {r["attrs"].get("job_id") for r in executed}
        recorded_ids = {r.job_id for r in recorded.results}
        assert executed_ids.isdisjoint(recorded_ids)
