"""The activity memo: one estimate per netlist structure and base
activity, exact and safe.

:func:`estimate_activity` keeps recent ``(alpha, iterations)`` pairs keyed
by the netlist's structure and ``float(base_activity)``.  A hit must give
the bytes the kernel gives cold, any structural edit must miss, a miss
must still validate, and the shared ``alpha`` must be read-only.  Misses
and hits are told apart by the ``activity.estimate`` span (opened only
when the kernel runs) and the ``activity.memo.hit`` counter.
"""

from __future__ import annotations

import sys
import threading
from typing import Tuple

import numpy as np
import pytest

from repro import observe
from repro.activity import ace
from repro.activity.ace import MEMO_SIZE, ActivityEstimate, estimate_activity
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import BlockType, Netlist
from repro.netlists.vtr_suite import VTR_BENCHMARKS
from repro.observe.sinks import InMemorySink

SUITE = {spec.name: spec for spec in VTR_BENCHMARKS}
DESIGNS = ("sha", "mkSMAdapter4B", "diffeq1")

MEMO = MEMOS["activity.memo"]

SMALL = NetlistSpec("memo_small", n_luts=20, depth=4, ff_ratio=0.4, seed=17,
                    base_activity=0.2)


@pytest.fixture(autouse=True)
def cold_memo():
    MEMO.clear()
    yield
    MEMO.clear()


def _traced(netlist: Netlist, base: float) -> Tuple[ActivityEstimate, int, float]:
    """``(estimate, kernel spans, memo hits)`` of one call."""
    sink = InMemorySink()
    with observe.enabled(sink=sink):
        estimate = estimate_activity(netlist, base)
    spans = [r for r in sink.spans() if r["name"] == "activity.estimate"]
    hits = sum(
        m["value"] for m in sink.metrics() if m["name"] == "activity.memo.hit"
    )
    return estimate, len(spans), hits


def _cold(netlist: Netlist, base: float) -> ActivityEstimate:
    MEMO.clear()
    return estimate_activity(netlist, base)


def _chain() -> Netlist:
    """pad -> lut_a -> lut_b -> ff -> out, with ff feeding lut_a back."""
    nl = Netlist("chain")
    pad = nl.add_block(BlockType.INPUT, "pad")
    lut_a = nl.add_block(BlockType.LUT, "lut_a")
    lut_b = nl.add_block(BlockType.LUT, "lut_b")
    ff = nl.add_block(BlockType.FF, "ff")
    out = nl.add_block(BlockType.OUTPUT, "out")
    nl.connect(nl.add_net(pad), lut_a)
    nl.connect(nl.add_net(lut_a), lut_b)
    nl.connect(nl.add_net(lut_b), ff)
    q = nl.add_net(ff)
    nl.connect(q, out)
    nl.connect(q, lut_a)
    return nl


class TestHitsAreExact:
    @pytest.mark.parametrize("name", DESIGNS)
    def test_hit_matches_cold_kernel(self, name):
        spec = SUITE[name]
        cold, cold_spans, cold_hits = _traced(generate_netlist(spec), spec.base_activity)
        hit, hit_spans, hit_hits = _traced(generate_netlist(spec), spec.base_activity)
        assert (cold_spans, cold_hits) == (1, 0)
        assert (hit_spans, hit_hits) == (0, 1)
        alpha, iterations = ace._gauss_seidel(generate_netlist(spec), spec.base_activity)
        assert hit.iterations == cold.iterations == iterations
        assert hit.alpha.dtype == alpha.dtype
        assert hit.alpha.tobytes() == cold.alpha.tobytes() == alpha.tobytes()

    def test_equal_base_activity_types_share_an_entry(self):
        netlist = generate_netlist(SMALL)
        estimate_activity(netlist, 0.25)
        _, spans, hits = _traced(netlist, np.float64(0.25))
        assert (spans, hits) == (0, 1)


class TestEditsMiss:
    def test_connecting_a_new_net_misses(self):
        netlist = generate_netlist(SMALL)
        before = estimate_activity(netlist, 0.2)
        lut = netlist.blocks_of_type(BlockType.LUT)[0]
        pad = netlist.add_block(BlockType.INPUT, "extra_pad")
        netlist.connect(netlist.add_net(pad), lut)
        after, spans, hits = _traced(netlist, 0.2)
        assert (spans, hits) == (1, 0)
        assert after.alpha.shape == (before.alpha.size + 1,)
        assert after.alpha.tobytes() == _cold(netlist, 0.2).alpha.tobytes()

    def test_editing_input_nets_in_place_misses(self):
        netlist = generate_netlist(SMALL)
        before = estimate_activity(netlist, 0.2)
        pad_net = netlist.blocks_of_type(BlockType.INPUT)[0].output_nets[0]
        # A LUT fed first by another LUT: a pad's net toggles more.
        lut = next(
            b for b in netlist.blocks_of_type(BlockType.LUT)
            if netlist.blocks[netlist.nets[b.input_nets[0]].driver].type
            == BlockType.LUT
        )
        lut.input_nets[0] = pad_net
        after, spans, hits = _traced(netlist, 0.2)
        assert (spans, hits) == (1, 0)
        assert after.alpha.tobytes() != before.alpha.tobytes()
        assert after.alpha.tobytes() == _cold(netlist, 0.2).alpha.tobytes()

    def test_other_base_activity_misses(self):
        netlist = generate_netlist(SMALL)
        low = estimate_activity(netlist, 0.2)
        high, spans, hits = _traced(netlist, 0.3)
        assert (spans, hits) == (1, 0)
        assert high.mean() > low.mean()
        assert high.alpha.tobytes() == _cold(netlist, 0.3).alpha.tobytes()


class TestMissesValidate:
    def test_cached_netlist_turned_cyclic_raises(self):
        netlist = _chain()
        estimate_activity(netlist, 0.2)
        lut_a, lut_b = netlist.blocks_of_type(BlockType.LUT)
        netlist.connect(netlist.add_net(lut_b), lut_a)
        with pytest.raises(ValueError, match="combinational cycle"):
            estimate_activity(netlist, 0.2)

    def test_cached_netlist_with_two_input_ff_raises(self):
        netlist = _chain()
        estimate_activity(netlist, 0.2)
        (ff,) = netlist.blocks_of_type(BlockType.FF)
        pad = netlist.blocks_of_type(BlockType.INPUT)[0]
        netlist.connect(netlist.nets[pad.output_nets[0]], ff)
        with pytest.raises(ValueError, match="exactly 1 input"):
            estimate_activity(netlist, 0.2)

    def test_invalid_netlist_is_not_stored(self):
        netlist = _chain()
        lut_a, lut_b = netlist.blocks_of_type(BlockType.LUT)
        netlist.connect(netlist.add_net(lut_b), lut_a)
        for _ in range(2):
            with pytest.raises(ValueError, match="combinational cycle"):
                estimate_activity(netlist, 0.2)
        assert len(MEMO) == 0


class TestSharedResult:
    def test_alpha_is_read_only_on_miss_and_hit(self):
        netlist = generate_netlist(SMALL)
        for estimate in (estimate_activity(netlist, 0.2),
                         estimate_activity(netlist, 0.2)):
            with pytest.raises(ValueError, match="read-only"):
                estimate.alpha[0] = 0.5

    def test_hit_wraps_the_callers_netlist(self):
        filler = generate_netlist(SMALL)
        caller = generate_netlist(SMALL)
        assert caller is not filler
        first = estimate_activity(filler, 0.2)
        second = estimate_activity(caller, 0.2)
        assert first.netlist is filler
        assert second.netlist is caller
        assert second.alpha is first.alpha

    def test_memo_stays_within_its_bound(self):
        netlist = generate_netlist(SMALL)
        bases = [0.1 + 0.01 * i for i in range(MEMO_SIZE + 8)]
        for base in bases:
            estimate_activity(netlist, base)
        assert len(MEMO) == MEMO_SIZE
        # Least recently used goes first: the newest entries stay.
        _, spans, hits = _traced(netlist, bases[-1])
        assert (spans, hits) == (0, 1)
        _, spans, hits = _traced(netlist, bases[0])
        assert (spans, hits) == (1, 0)
        assert len(MEMO) == MEMO_SIZE


class TestThreads:
    def test_concurrent_calls_agree_with_the_kernel(self):
        # More threads than cores, more bases than entries (so evictions
        # race lookups), and a short switch interval to interleave them.
        netlist = generate_netlist(SMALL)
        bases = [0.1 + 0.01 * i for i in range(MEMO_SIZE + 8)]
        want = {b: ace._gauss_seidel(netlist, b)[0].tobytes() for b in bases}
        errors = []

        def worker(offset):
            try:
                for i in range(3 * len(bases)):
                    base = bases[(offset + 7 * i) % len(bases)]
                    if estimate_activity(netlist, base).alpha.tobytes() != want[base]:
                        errors.append(f"wrong alpha at base {base}")
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
        assert len(MEMO) == MEMO_SIZE


class TestObservability:
    def test_one_span_per_kernel_run_and_one_hit_per_reuse(self):
        netlist = generate_netlist(SMALL)
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            first = estimate_activity(netlist, 0.2)
            second = estimate_activity(netlist, 0.2)
        (span,) = [r for r in sink.spans() if r["name"] == "activity.estimate"]
        assert span["attrs"] == {
            "netlist": "memo_small",
            "n_nets": netlist.n_nets,
            "base_activity": 0.2,
            "iterations": first.iterations,
        }
        (hits,) = [m for m in sink.metrics() if m["name"] == "activity.memo.hit"]
        assert hits["value"] == 1.0
        assert second.alpha is first.alpha
