"""The COFFE memos: a cold fabric does each piece of work once, exactly.

A cold :func:`build_fabric` sizes every resource once per corner.  The
raw characterization of a corner is computed once (the
``coffe.raw.memo``), so the 25 C one serves both the calibration and the
25 C fabric.  One Monte-Carlo SRAM sample serves a BRAM and all its bank
variants (the ``coffe.montecarlo.memo``).  The
device evaluations take a threshold instead of building a
:class:`DeviceParams` copy per call.  The counts below are exact, so
reverting any one of these fails here on any host; the fabric goldens
(``test_fabric_golden.py``) pin that the memos change no bit.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import observe
from repro.arch.params import ArchParams
from repro.coffe import bram, characterize
from repro.coffe.characterize import RESOURCE_NAMES, characterize_fabric
from repro.coffe.fabric import Fabric, build_fabric
from repro.observe.sinks import InMemorySink
from repro.technology.ptm22 import DeviceParams

ARCH = ArchParams()


def _counted(monkeypatch, module, name: str) -> List[object]:
    """Replace ``module.name`` by a wrapper that logs each call."""
    calls: List[object] = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _assert_same(a: Fabric, b: Fabric) -> None:
    for name in RESOURCE_NAMES:
        x, y = a.resources[name], b.resources[name]
        assert x.sizes == y.sizes, name
        assert x.area_um2 == y.area_um2 and x.pdyn_w_base == y.pdyn_w_base, name
        assert np.array_equal(x.delay_s, y.delay_s), name
        assert np.array_equal(x.leakage_w, y.leakage_w), name


class TestWorkCounts:
    def test_each_cold_corner_sizes_and_samples_once(self, cold_coffe, monkeypatch):
        sizings = _counted(monkeypatch, characterize, "corner_sizing")
        samples = _counted(monkeypatch, bram, "sram_weakest_cell_leakage")
        build_fabric(25.0, ARCH)
        # Not 16 and 9: the calibration and the fabric share one 25 C
        # characterization, and the BRAM's three bank variants share its
        # sample.
        assert (len(sizings), len(samples)) == (8, 1)
        build_fabric(70.0, ARCH)
        assert (len(sizings), len(samples)) == (16, 2)

    def test_uncached_rebuild_sizes_nothing(self, cold_coffe, monkeypatch):
        build_fabric(25.0, ARCH)
        build_fabric(70.0, ARCH)
        sizings = _counted(monkeypatch, characterize, "corner_sizing")
        samples = _counted(monkeypatch, bram, "sram_weakest_cell_leakage")
        for corner in (25.0, 70.0):
            Fabric(corner, ARCH, characterize_fabric(ARCH, corner))
        assert (len(sizings), len(samples)) == (0, 0)

    def test_device_evaluations_build_no_params(self, cold_coffe, monkeypatch):
        built = _counted(monkeypatch, DeviceParams, "__post_init__")
        build_fabric(25.0, ARCH)
        # Only the DSP stage device, once per DspModel: one for the
        # reference sizing, one for the corner sizing.
        assert len(built) == 2


class TestSharedResultsStayPrivate:
    def test_mutating_a_fabric_leaves_the_memo_intact(self, cold_coffe):
        first = characterize_fabric(ARCH, 25.0)
        for char in first.values():
            char.delay_s *= 2.0
            char.leakage_w[:] = 0.0
            char.t_grid_celsius += 1.0
            char.sizes.clear()
        again = Fabric(25.0, ARCH, characterize_fabric(ARCH, 25.0))
        _assert_same(again, build_fabric(25.0, ARCH))


class TestObserve:
    def _traced_cold(self) -> tuple:
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            fab = build_fabric(25.0, ARCH)
        spans = [r for r in sink.spans() if r["name"] == "coffe.characterize"]
        counts: Dict[str, float] = {}
        for m in sink.metrics():
            if m["name"].startswith("coffe.") and ".memo." in m["name"]:
                counts[m["name"]] = counts.get(m["name"], 0) + m["value"]
        return fab, spans, counts

    def test_one_span_per_characterization_and_exact_hits(self, cold_coffe):
        _, spans, counts = self._traced_cold()
        assert len(spans) == 1
        assert spans[0]["attrs"]["corner"] == 25.0
        # The fabric reuses the calibration's 25 C characterization; the
        # corner BRAM and its three bank variants reuse the sample drawn
        # for the reference sizing; the eight corner sizings share one
        # reference sizing.  The calibration and the fabric are computed
        # once and never asked for again, and nothing is evicted.
        assert counts == {
            "coffe.budget.memo.miss": 1,
            "coffe.budget.memo.hit": 7,
            "coffe.calibration.memo.miss": 1,
            "coffe.raw.memo.miss": 1,
            "coffe.raw.memo.hit": 1,
            "coffe.montecarlo.memo.miss": 1,
            "coffe.montecarlo.memo.hit": 4,
            "coffe.fabric.memo.miss": 1,
        }

    def test_traced_build_is_bit_identical(self, cold_coffe):
        traced, _, _ = self._traced_cold()
        cold_coffe()
        _assert_same(traced, build_fabric(25.0, ARCH))

