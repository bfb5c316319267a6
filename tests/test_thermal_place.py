"""Tests for repro.cad.thermal_place — the placement thermal proxy.

Covers the incremental-cost bookkeeping (delta prediction == committed
delta == from-scratch recompute), the solver calibration loop (gamma
fit, drift-triggered refits, loud shape failure), the anneal's
integrity guard, determinism, and the observe telemetry the proxy
emits.
"""

import math
import struct

import numpy as np
import pytest

import repro.cad.place as place_module
from repro import observe
from repro.activity.ace import estimate_activity
from repro.arch.layout import FabricLayout, TileType
from repro.cad.pack import pack_netlist
from repro.cad.place import (
    PlacementIntegrityError,
    _check_cost_integrity,
    _initial_placement,
    _net_hpwl,
    _placement_nets,
    place,
)
from repro.cad.thermal_place import (
    SHAPE_TOLERANCE,
    ThermalPlaceError,
    ThermalProxy,
    _spreading_kernel,
    cluster_densities,
    density_vector,
    static_tile_density,
)
from repro.observe.sinks import InMemorySink


@pytest.fixture(scope="module")
def packed(tiny_netlist, arch):
    return pack_netlist(tiny_netlist, arch)


@pytest.fixture(scope="module")
def layout(packed, arch):
    counts = {t: 0 for t in TileType}
    for c in packed.clusters:
        counts[c.type] += 1
    return FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )


@pytest.fixture(scope="module")
def activity(tiny_netlist, tiny_spec):
    return estimate_activity(tiny_netlist, tiny_spec.base_activity)


def make_proxy(packed, layout, activity, seed=5, **kwargs):
    rng = np.random.default_rng(seed)
    placement = _initial_placement(packed, layout, rng)
    return ThermalProxy(
        layout, packed, activity, placement.location, **kwargs
    ), placement


def random_move(proxy, packed, layout, placement, rng):
    """One random same-type relocation as the placer's move list."""
    cluster = packed.clusters[int(rng.integers(0, len(packed.clusters)))]
    x0, y0 = placement.location[cluster.id]
    candidates = [
        (t.x, t.y) for t in layout.tiles()
        if t.type == cluster.type and (t.x, t.y) != (x0, y0)
    ]
    x1, y1 = candidates[int(rng.integers(0, len(candidates)))]
    placement.location[cluster.id] = (x1, y1)
    return [(cluster.id, (x0, y0), (x1, y1))]


class TestDensityModel:
    def test_cluster_densities_positive_for_active_logic(
        self, packed, activity
    ):
        densities = cluster_densities(packed, activity)
        assert set(densities) == {c.id for c in packed.clusters}
        # The tiny design's logic clusters all switch, so they all heat.
        assert all(d >= 0.0 for d in densities.values())
        assert max(densities.values()) > 0.0

    def test_static_density_everywhere_positive(self, layout):
        base = static_tile_density(layout)
        assert base.shape == (layout.n_tiles,)
        assert np.all(base > 0.0)

    def test_density_vector_decomposes(self, packed, layout, activity):
        rng = np.random.default_rng(1)
        placement = _initial_placement(packed, layout, rng)
        total = density_vector(packed, placement.location, layout, activity)
        dynamic = density_vector(
            packed, placement.location, layout, activity, include_static=False
        )
        assert total.shape == (layout.n_tiles,)
        np.testing.assert_allclose(
            total - dynamic, static_tile_density(layout)
        )
        assert dynamic.sum() == pytest.approx(
            sum(cluster_densities(packed, activity).values())
        )

    def test_kernel_is_normalized_and_peaked_at_center(self):
        kernel = _spreading_kernel(2, 1.3)
        assert len(kernel) == 25
        assert sum(w for _, _, w in kernel) == pytest.approx(1.0)
        center = next(w for dx, dy, w in kernel if dx == 0 and dy == 0)
        assert center == max(w for _, _, w in kernel)


class TestIncrementalCost:
    def test_initial_raw_cost_matches_full_recompute(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        assert proxy.raw_cost == pytest.approx(proxy.full_raw_cost())

    def test_delta_prediction_matches_commit_and_recompute(
        self, packed, layout, activity
    ):
        proxy, placement = make_proxy(packed, layout, activity)
        proxy.weight = 1.0  # raw units: delta_for returns the raw delta
        rng = np.random.default_rng(9)
        for _ in range(40):
            before = proxy.raw_cost
            moved = random_move(proxy, packed, layout, placement, rng)
            predicted = proxy.delta_for(moved)
            proxy.apply(moved)
            assert proxy.raw_cost == pytest.approx(before + predicted)
        # After a long random walk the incremental state still agrees
        # with a from-scratch spread of the tracked density field.
        assert proxy.raw_cost == pytest.approx(proxy.full_raw_cost())

    def test_swap_move_footprints_cancel(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        proxy.weight = 1.0
        # A cluster moved out and straight back is a thermal no-op.
        cluster = packed.clusters[0]
        x0, y0 = placement.location[cluster.id]
        there = [(cluster.id, (x0, y0), (x0, y0))]
        assert proxy.delta_for(there) == pytest.approx(0.0)

    def test_apply_reuses_the_priced_footprint_exactly(
        self, packed, layout, activity
    ):
        """``apply`` after ``delta_for`` on the same move list (the cached
        footprint) and ``apply`` alone (a fresh footprint) commit the same
        bytes, over a walk that keeps both proxies in step."""
        priced, placement = make_proxy(packed, layout, activity)
        fresh, _ = make_proxy(packed, layout, activity)
        priced.weight = fresh.weight = 1.0
        rng = np.random.default_rng(4)
        for _ in range(40):
            moved = random_move(priced, packed, layout, placement, rng)
            priced.delta_for(moved)
            priced.apply(moved)
            fresh.apply(list(moved))
            assert struct.pack("<d", priced.raw_cost) == struct.pack(
                "<d", fresh.raw_cost
            )
        assert priced._spread == fresh._spread
        assert fresh.n_proxy_evals == 0

    def test_proxy_eval_counter_tracks_calls(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        rng = np.random.default_rng(2)
        moved = random_move(proxy, packed, layout, placement, rng)
        assert proxy.n_proxy_evals == 0
        proxy.delta_for(moved)
        proxy.delta_for(moved)
        assert proxy.n_proxy_evals == 2


class TestCalibration:
    def test_forced_fit_sets_gamma_within_shape_tolerance(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        assert proxy.gamma > 0.0
        assert proxy.n_calibrations == 1
        assert proxy.n_recalibrations == 1
        assert 0.0 <= proxy.final_shape_error <= SHAPE_TOLERANCE

    def test_fresh_gamma_is_stable_without_moves(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        drift = proxy.calibrate()
        # Nothing moved, so the fit reproduces the held gain exactly.
        assert drift == pytest.approx(0.0, abs=1e-12)
        assert proxy.n_recalibrations == 1

    def test_stale_gamma_triggers_refit(self, packed, layout, activity):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        good = proxy.gamma
        proxy.gamma = good * 10.0  # simulate a badly stale scaling
        drift = proxy.calibrate()
        assert drift > proxy.drift_tolerance
        assert proxy.n_recalibrations == 2
        assert proxy.gamma == pytest.approx(good)
        assert proxy.max_drift >= drift

    def test_unrepresentable_shape_fails_loudly(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(
            packed, layout, activity, shape_tolerance=1e-9
        )
        with pytest.raises(ThermalPlaceError, match="shape tolerance"):
            proxy.calibrate(force=True)

    def test_solver_is_reused_across_calibrations(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        solver = proxy._solver
        assert solver is not None
        proxy.calibrate()
        assert proxy._solver is solver


class TestIntegrityGuard:
    @pytest.fixture()
    def guard_state(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        nets = _placement_nets(packed)
        net_cost = [_net_hpwl(n, placement.location) for n in nets]
        return proxy, placement, nets, net_cost

    def test_consistent_state_passes(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        _check_cost_integrity(
            sum(net_cost), nets, placement.location, proxy, net_cost
        )

    def test_hpwl_drift_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        with pytest.raises(PlacementIntegrityError, match="HPWL"):
            _check_cost_integrity(
                sum(net_cost) + 1.0, nets, placement.location, proxy, net_cost
            )

    def test_proxy_drift_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        proxy.raw_cost += 0.1 * max(proxy.raw_cost, 1.0)
        with pytest.raises(PlacementIntegrityError, match="thermal proxy"):
            _check_cost_integrity(
                sum(net_cost), nets, placement.location, proxy, net_cost
            )

    def test_stale_net_cost_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        stale = list(net_cost)
        stale[3] = math.nextafter(stale[3], math.inf)
        with pytest.raises(PlacementIntegrityError, match="net 3"):
            _check_cost_integrity(
                sum(net_cost), nets, placement.location, proxy, stale
            )

    def test_anneal_detects_a_corrupted_net_cost(
        self, monkeypatch, packed, layout
    ):
        """One ulp on a cached net cost, far inside the HPWL tolerance,
        must still abort place(): cached costs are checked exactly."""
        original = place_module._anneal

        def corrupt(*args, net_cost, **kwargs):
            result = original(*args, net_cost=net_cost, **kwargs)
            net_cost[0] = math.nextafter(net_cost[0], math.inf)
            return result

        monkeypatch.setattr(place_module, "_anneal", corrupt)
        with pytest.raises(PlacementIntegrityError, match="cached net cost"):
            place(packed, layout, seed=3, effort=0.3)

    def test_anneal_detects_corrupted_bookkeeping(
        self, monkeypatch, packed, layout
    ):
        """A proxy whose commits drift from its deltas must abort place()."""
        original = ThermalProxy.apply

        def corrupt(self, moved):
            original(self, moved)
            self.raw_cost += 0.05 * max(abs(self.raw_cost), 1.0)

        monkeypatch.setattr(ThermalProxy, "apply", corrupt)
        with pytest.raises(PlacementIntegrityError):
            place(packed, layout, seed=3, effort=0.3, thermal_weight=0.5)


class TestThermalAwareAnneal:
    @pytest.fixture(scope="class")
    def thermal_placement(self, packed, layout):
        return place(packed, layout, seed=3, effort=0.5, thermal_weight=0.7)

    def test_deterministic_for_seed_and_weight(
        self, packed, layout, thermal_placement
    ):
        again = place(packed, layout, seed=3, effort=0.5, thermal_weight=0.7)
        assert again.location == thermal_placement.location

    def test_weight_changes_the_anneal(self, packed, layout, thermal_placement):
        baseline = place(packed, layout, seed=3, effort=0.5)
        assert baseline.location != thermal_placement.location
        assert baseline.thermal_stats is None

    def test_stats_attached_and_sane(self, thermal_placement):
        stats = thermal_placement.thermal_stats
        assert stats is not None
        assert stats.thermal_weight == 0.7
        assert stats.gamma > 0.0
        assert stats.n_calibrations >= 2  # forced fit + final check
        assert stats.n_recalibrations >= 1
        assert stats.n_proxy_evals > 0
        assert np.isfinite(stats.max_drift)
        assert stats.final_shape_error <= SHAPE_TOLERANCE
        assert stats.proxy_cost >= 0.0

    def test_stats_floats_are_python_floats(self, thermal_placement):
        stats = thermal_placement.thermal_stats
        for name in ("proxy_cost", "gamma", "max_drift", "final_drift",
                     "final_shape_error"):
            assert type(getattr(stats, name)) is float, name
        assert "np.float64" not in repr(stats)

    def test_valid_placement(self, packed, thermal_placement):
        thermal_placement.validate(packed)

    def test_rejects_invalid_weight(self, packed, layout):
        with pytest.raises(ValueError, match="thermal_weight"):
            place(packed, layout, seed=3, thermal_weight=-0.5)
        with pytest.raises(ValueError, match="thermal_weight"):
            place(packed, layout, seed=3, thermal_weight=float("nan"))

    def test_observe_telemetry_emitted(self, packed, layout):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            place(packed, layout, seed=3, effort=0.3, thermal_weight=0.5)
        span_names = {r["name"] for r in sink.spans()}
        assert "place.thermal.calibrate" in span_names
        event_names = {r["name"] for r in sink.events()}
        assert "place.thermal.drift" in event_names
        metric_names = {r["name"] for r in sink.metrics()}
        assert "place.thermal.recalibrations" in metric_names
        assert "place.thermal.proxy_evals" in metric_names
