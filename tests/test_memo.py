"""The process-wide memo (:mod:`repro.memo`): bounded LRU order, exact
counts, one shared value under races, and a flow that comes back equal
after the flow memo evicts it."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import observe
from repro.cad.flow import FLOW_MEMO_SIZE, cache_counters, run_flow
from repro.memo import MEMOS, Memo, clear_all
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.observe.sinks import InMemorySink

PROBE = NetlistSpec("memo_probe", n_luts=10, depth=3, seed=77)


@pytest.fixture()
def memo():
    made = Memo("test.lru", 3)
    yield made
    del MEMOS["test.lru"]


class TestMemo:
    def test_least_recently_used_goes_first(self, memo):
        for key in "abc":
            memo.get(key, lambda key=key: key.upper())
        assert memo.get("a", lambda: "recomputed") == "A"  # a is now newest
        memo.get("d", lambda: "D")
        assert [key for key, _ in memo.items()] == ["c", "a", "d"]
        memo.get("e", lambda: "E")
        assert memo.items() == [("a", "A"), ("d", "D"), ("e", "E")]
        assert (memo.hits, memo.misses, memo.evictions) == (1, 5, 2)
        assert len(memo) == memo.maxsize == 3

    def test_counts_are_published(self, memo):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            for key in (1, 2, 1, 3, 4, 5, 1):
                memo.get(key, lambda key=key: -key)
        counts = {m["name"]: m["value"] for m in sink.metrics()
                  if m["name"].startswith("test.lru.")}
        assert counts == {"test.lru.hit": 1, "test.lru.miss": 6,
                          "test.lru.evict": 3}
        assert (memo.hits, memo.misses, memo.evictions) == (1, 6, 3)

    def test_a_failed_compute_stores_nothing(self, memo):
        with pytest.raises(ZeroDivisionError):
            memo.get("x", lambda: 1 / 0)
        assert len(memo) == 0
        assert memo.get("x", lambda: 2) == 2

    def test_first_value_stored_wins(self, memo):
        first, second = ["first"], ["second"]
        assert memo.put("k", first) is first
        assert memo.put("k", second) is first
        assert memo.get("k", lambda: second) is first

    def test_clear_all_empties_and_zeroes_every_memo(self, memo):
        memo.get("a", lambda: 1)
        memo.get("a", lambda: 1)
        saved = {name: m.items() for name, m in MEMOS.items()}
        clear_all()
        try:
            assert all(len(m) == 0 and m.hits == m.misses == m.evictions == 0
                       for m in MEMOS.values())
        finally:  # later tests keep the session's fabrics and flows
            for name, entries in saved.items():
                for key, value in entries:
                    MEMOS[name].put(key, value)

    def test_names_are_unique(self, memo):
        with pytest.raises(ValueError, match="already exists"):
            Memo("test.lru", 3)

    def test_racing_threads_share_one_value(self, memo):
        # More threads than cores and keys than entries, so evictions race
        # lookups; every caller of one key must get an equal value.
        errors = []

        def worker(offset):
            try:
                for i in range(300):
                    key = (offset + 7 * i) % 8
                    if memo.get(key, lambda: [key]) != [key]:
                        errors.append(f"wrong value for {key}")
            except Exception as error:  # reported below, never swallowed
                errors.append(repr(error))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == 3
        assert memo.hits + memo.misses == 6 * 300


class TestFlowMemo:
    """The flow memo keeps at most its bound, and an evicted flow comes
    back equal from the disk cache or from a fresh place-and-route.  The
    bound is lowered to 3 so the test routes five flows, not 34."""

    def test_bound_covers_every_benchmark_process(self):
        assert MEMOS["flow.memo"].maxsize == FLOW_MEMO_SIZE >= 24

    @pytest.mark.parametrize("disk", ["on", "off"])
    def test_evicted_flow_comes_back_equal(
        self, disk, tmp_path, monkeypatch, fabric25
    ):
        monkeypatch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path) if disk == "on" else "off"
        )
        flows = MEMOS["flow.memo"]
        monkeypatch.setattr(flows, "maxsize", 3)
        flows.clear()
        netlist = generate_netlist(PROBE)
        k = 2
        first = [run_flow(netlist, seed=seed) for seed in range(flows.maxsize + k)]
        assert len(flows) == flows.maxsize
        assert flows.evictions == k

        before = cache_counters()
        again = run_flow(netlist, seed=0)
        after = cache_counters()
        assert again is not first[0]
        assert after["hit"] - before["hit"] == (1 if disk == "on" else 0)
        assert after["miss"] - before["miss"] == (0 if disk == "on" else 1)
        assert flows.evictions == k + 1
        assert again.cache_key == first[0].cache_key
        assert again.routing.total_wire_nodes() == first[0].routing.total_wire_nodes()
        assert again.routing.routes == first[0].routing.routes
        for t_celsius in (25.0, 100.0):
            temps = np.full(again.n_tiles, t_celsius)
            assert again.timing.critical_path(fabric25, temps) == (
                first[0].timing.critical_path(fabric25, temps)
            )
        flows.clear()
