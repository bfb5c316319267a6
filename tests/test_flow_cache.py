"""Tests for the on-disk place-and-route cache."""

import dataclasses
import inspect
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.arch.rrgraph import RRGraph
from repro.cad.flow import (
    FLOW_CACHE_VERSION,
    FlowResult,
    _disk_cache_path,
    arch_digest,
    cache_counters,
    flow_cache_key,
    flow_cache_key_for,
    run_flow,
)
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.vtr_suite import vtr_benchmark


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


@pytest.fixture()
def small_netlist():
    return generate_netlist(NetlistSpec("cache_probe", n_luts=10, depth=3, seed=77))


class TestDiskCache:
    def test_writes_and_reloads(self, cache_dir, small_netlist, arch):
        first = run_flow(small_netlist, arch, seed=3)
        files = list(cache_dir.glob("*.pkl"))
        assert len(files) == 1
        # Purge the in-memory cache, reload from disk.
        MEMOS["flow.memo"].clear()
        second = run_flow(small_netlist, arch, seed=3)
        assert second.placement.location == first.placement.location

    @pytest.mark.parametrize(
        "payload",
        [b"not a pickle", pickle.dumps({"not": "flow"})],
        ids=["torn", "wrong_type"],
    )
    def test_corrupt_cache_recovered(self, cache_dir, small_netlist, arch, payload):
        path = _disk_cache_path(small_netlist, arch, 3)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        MEMOS["flow.memo"].clear()
        before = cache_counters()["quarantine"]
        result = run_flow(small_netlist, arch, seed=3)  # must not raise
        assert result.netlist is small_netlist
        assert cache_counters()["quarantine"] == before + 1
        # The bad entry was quarantined for post-mortem, and the entry
        # was recomputed and re-cached as a valid pickle.
        quarantined = list(path.parent.glob("*.corrupt"))
        assert len(quarantined) == 1
        assert quarantined[0].read_bytes() == payload
        with open(path, "rb") as handle:
            assert isinstance(pickle.load(handle), FlowResult)

    def test_cache_off(self, monkeypatch, small_netlist, arch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        assert _disk_cache_path(small_netlist, arch, 3) is None

    def test_use_cache_false_bypasses(self, cache_dir, small_netlist, arch):
        run_flow(small_netlist, arch, seed=9, use_cache=False)
        assert not list(cache_dir.glob("*.pkl"))

    def test_key_distinguishes_seeds(self, cache_dir, small_netlist, arch):
        a = _disk_cache_path(small_netlist, arch, 1)
        b = _disk_cache_path(small_netlist, arch, 2)
        assert a != b

    def test_key_distinguishes_arch(self, cache_dir, small_netlist, arch):
        other = arch.with_changes(cluster_size=8)
        assert _disk_cache_path(small_netlist, arch, 1) != _disk_cache_path(
            small_netlist, other, 1
        )

    def test_result_carries_cache_key(self, cache_dir, small_netlist, arch):
        result = run_flow(small_netlist, arch, seed=3)
        assert result.cache_key == flow_cache_key(small_netlist, arch, 3)
        # Reloads (memory or disk) keep the key.
        MEMOS["flow.memo"].clear()
        assert run_flow(small_netlist, arch, seed=3).cache_key == result.cache_key


class TestCacheKeyDigest:
    """The key must be a content digest, stable across interpreters —
    ``hash()`` is salted per process and silently splits the cache."""

    def test_deterministic_within_process(self, small_netlist, arch):
        assert arch_digest(arch) == arch_digest(arch)
        assert flow_cache_key(small_netlist, arch, 3) == flow_cache_key(
            small_netlist, arch, 3
        )

    def test_sensitive_to_every_arch_field(self, arch):
        baseline = arch_digest(arch)
        for changed in (
            arch.with_changes(cluster_size=arch.cluster_size + 2),
            arch.with_changes(channel_tracks=arch.channel_tracks + 4),
            arch.with_changes(vdd=arch.vdd + 0.05),
        ):
            assert arch_digest(changed) != baseline

    def test_key_distinguishes_thermal_weight(self, small_netlist, arch):
        base = flow_cache_key(small_netlist, arch, 3)
        thermal = flow_cache_key(small_netlist, arch, 3, thermal_weight=0.7)
        assert base != thermal
        assert "_w0_" in base
        assert "_w0.7_" in thermal

    def test_thermal_weight_composes_with_timing_driven(
        self, small_netlist, arch
    ):
        keys = {
            flow_cache_key_for(small_netlist, arch, seed=3),
            flow_cache_key_for(small_netlist, arch, seed=3, timing_driven=True),
            flow_cache_key_for(small_netlist, arch, seed=3, thermal_weight=0.7),
            flow_cache_key_for(
                small_netlist, arch, seed=3,
                timing_driven=True, thermal_weight=0.7,
            ),
        }
        assert len(keys) == 4

    def test_disk_path_distinguishes_thermal_weight(
        self, cache_dir, small_netlist, arch
    ):
        plain = _disk_cache_path(small_netlist, arch, 3)
        thermal = _disk_cache_path(small_netlist, arch, 3, thermal_weight=0.7)
        assert plain != thermal

    def test_every_run_flow_knob_is_a_key_component(self):
        """A ``run_flow`` parameter outside the key would let one call's
        mapping be served to a later call with a different value."""
        knobs = set(inspect.signature(run_flow).parameters) - {
            "netlist", "use_cache",
        }
        assert knobs <= set(inspect.signature(flow_cache_key_for).parameters)

    def test_key_embeds_cache_version(self, small_netlist, arch):
        assert flow_cache_key(small_netlist, arch, 3).startswith(
            f"v{FLOW_CACHE_VERSION}_"
        )

    def test_stable_across_interpreters(self, small_netlist, arch):
        """Fresh interpreter (fresh hash salt) computes the same key."""
        script = (
            "from repro.arch.params import ArchParams\n"
            "from repro.cad.flow import arch_digest\n"
            "print(arch_digest(ArchParams()), end='')\n"
        )
        env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="12345")
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert out.stdout == arch_digest(type(arch)())


class TestPickledGraph:
    """A flow-cache disk hit unpickles the RR graph as a few flat arrays."""

    def test_sha_round_trip(self, arch, fabric25):
        flow = run_flow(vtr_benchmark("sha"), arch, use_cache=False)
        blob = pickle.dumps(flow)
        assert len(blob) < 120_000  # 305 kB with one object per node and edge
        again = pickle.loads(blob)
        for field in dataclasses.fields(RRGraph):
            before = getattr(flow.routing.graph, field.name)
            after = getattr(again.routing.graph, field.name)
            if isinstance(before, np.ndarray):
                assert after.dtype == before.dtype
                np.testing.assert_array_equal(after, before)
            else:
                assert after == before
        assert again.routing.total_wire_nodes() == flow.routing.total_wire_nodes()
        for t_celsius in (25.0, 100.0):
            temps = np.full(flow.n_tiles, t_celsius)
            expected = flow.timing.critical_path(fabric25, temps)
            assert again.timing.critical_path(fabric25, temps) == expected
