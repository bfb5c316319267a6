"""Regressions and equivalence tests for the vectorized Algorithm 1 hot loop.

Covers the hot-loop bugfixes (guardband iteration validation, timing error
messages, temperature normalization, RR-graph edge diagnostics) and asserts
the vectorized STA / pre-factorized thermal / matrix-product power paths
reproduce the seed implementation bit-for-bit (within 1e-9 relative
tolerance) — including end-to-end guardband frequencies on three VTR
netlists.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import observe
from repro.activity.ace import estimate_activity
from repro.cad.flow import run_flow
from repro.cad.timing import TimingAnalyzer
from repro.core.guardband import (
    GuardbandConfig,
    GuardbandError,
    thermal_aware_guardband,
)
from repro.core.reference import seed_implementation
from repro.netlists.vtr_suite import vtr_benchmark
from repro.power.model import PowerModel
from repro.power.voltage import VoltageScaling, resource_delay_scale
from repro.technology.ptm22 import VDD_NOMINAL
from repro.thermal.hotspot import ThermalSolver

EQUIVALENCE_NETLISTS = ("sha", "mkSMAdapter4B", "stereovision3")


@pytest.fixture(scope="module")
def vtr_flows(arch):
    return {
        name: run_flow(vtr_benchmark(name), arch)
        for name in EQUIVALENCE_NETLISTS
    }


# -- satellite bugfix regressions ---------------------------------------------


class TestGuardbandIterationValidation:
    @pytest.mark.parametrize("max_iterations", [0, -1, -25])
    def test_non_positive_max_iterations_rejected(
        self, tiny_flow, fabric25, max_iterations
    ):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            thermal_aware_guardband(
                tiny_flow, fabric25, t_ambient=25.0,
                config=GuardbandConfig(max_iterations=max_iterations),
            )

    def test_non_convergence_message_reports_last_delta(self, tiny_flow, fabric25):
        # One iteration with a microscopic threshold cannot converge; the
        # error must still carry the last |dT| (history is non-empty).
        with pytest.raises(GuardbandError, match=r"last \|dT\|"):
            thermal_aware_guardband(
                tiny_flow, fabric25, t_ambient=25.0,
                config=GuardbandConfig(delta_t=1e-9, max_iterations=1),
            )


class TestTimingErrorMessages:
    def test_non_positive_critical_path_message(
        self, tiny_flow, fabric25, uniform_25, monkeypatch
    ):
        timing = tiny_flow.timing
        n = timing.packed.netlist.n_blocks
        zeros = (
            np.zeros(n),
            np.full(n, -1, dtype=int),
            {0: 0.0},
        )
        monkeypatch.setattr(
            TimingAnalyzer,
            "_arrivals",
            lambda self, f, t, delay_scale=None: [zeros],
        )
        with pytest.raises(ValueError, match="non-positive critical-path delay"):
            timing.critical_path(fabric25, uniform_25)

    def test_resource_mix_validates_temperature_length(self, tiny_flow, fabric25):
        bad = np.full(tiny_flow.n_tiles + 3, 25.0)
        with pytest.raises(ValueError, match="tiles"):
            tiny_flow.timing.critical_path_resource_mix(fabric25, bad)

    def test_resource_mix_scalar_broadcast_still_works(self, tiny_flow, fabric25):
        mix = tiny_flow.timing.critical_path_resource_mix(fabric25, 25.0)
        assert mix
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_missing_rr_edge_names_the_net(self, tiny_flow):
        routing = copy.deepcopy(tiny_flow.routing)
        # Sever the first hop of some routed net's sink path in the copy.
        cut = None
        for net_id, route in sorted(routing.routes.items()):
            for path in route.sink_paths.values():
                if len(path) >= 2:
                    cut = (path[0], path[1])
                    break
            if cut:
                break
        assert cut is not None, "expected at least one routed net"
        u, v = cut
        # Delete every u->v edge from the copy's CSR arrays.
        graph = routing.graph
        lo, hi = graph.edge_offsets[u], graph.edge_offsets[u + 1]
        doomed = lo + np.flatnonzero(graph.edge_dst[lo:hi] == v)
        assert doomed.size
        graph.edge_dst = np.delete(graph.edge_dst, doomed)
        graph.edge_resource = np.delete(graph.edge_resource, doomed)
        graph.edge_offsets[u + 1:] -= doomed.size
        assert v not in [dst for dst, _resource in graph.edges_of(u)]
        with pytest.raises(
            ValueError, match=r"net \d+ .* does not exist in the RR graph"
        ):
            TimingAnalyzer(
                tiny_flow.packed, tiny_flow.placement, routing, tiny_flow.layout
            )

    def test_disconnected_route_tree_names_the_net(self, tiny_flow):
        routing = copy.deepcopy(tiny_flow.routing)
        # Point some route at a bogus source: every chain walk then runs
        # past the real source and off the end of the parent map.
        corrupted = False
        for net_id, route in sorted(routing.routes.items()):
            if route.sink_paths:
                route.source_node = 10**9
                corrupted = True
                break
        assert corrupted, "expected at least one routed net"
        with pytest.raises(
            ValueError, match=r"net \d+ .* disconnected at node"
        ):
            TimingAnalyzer(
                tiny_flow.packed, tiny_flow.placement, routing, tiny_flow.layout
            )


# -- fast-path equivalence ----------------------------------------------------


class TestArrivalPassEquivalence:
    def test_matches_reference_on_random_profiles(self, tiny_flow, fabric25):
        timing = tiny_flow.timing
        rng = np.random.default_rng(7)
        for _ in range(3):
            t_tiles = 25.0 + 40.0 * rng.random(tiny_flow.n_tiles)
            arr_f, pred_f, ends_f = timing._arrivals(fabric25, t_tiles[None])[0]
            arr_r, pred_r, ends_r = timing._arrival_pass_reference(
                fabric25, t_tiles
            )
            np.testing.assert_allclose(arr_f, arr_r, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(pred_f, pred_r)
            assert set(ends_f) == set(ends_r)
            for endpoint, delay in ends_r.items():
                assert ends_f[endpoint] == pytest.approx(delay, rel=1e-12)

    def test_critical_path_matches_seed_mode(self, tiny_flow, fabric25, uniform_25):
        fast = tiny_flow.timing.critical_path(fabric25, uniform_25)
        with seed_implementation():
            seed = tiny_flow.timing.critical_path(fabric25, uniform_25)
        assert fast.critical_path_s == pytest.approx(seed.critical_path_s, rel=1e-12)
        assert fast.critical_endpoint == seed.critical_endpoint
        assert fast.critical_blocks == seed.critical_blocks


class TestThermalSolverEquivalence:
    def test_factorized_matches_spsolve(self, tiny_flow):
        solver = ThermalSolver(tiny_flow.layout)
        rng = np.random.default_rng(3)
        power = rng.random(tiny_flow.n_tiles) * 0.02
        fast = solver.solve(power, 25.0)
        seed = solver.solve_unfactored(power, 25.0)
        np.testing.assert_allclose(fast, seed, rtol=1e-9)

    def test_factorization_happens_once_at_construction(self, tiny_flow):
        solver = ThermalSolver(tiny_flow.layout)
        assert solver._factor is not None

    def test_validation_still_applies(self, tiny_flow):
        solver = ThermalSolver(tiny_flow.layout)
        with pytest.raises(ValueError, match="negative tile power"):
            solver.solve(np.full(tiny_flow.n_tiles, -1.0), 25.0)


class TestPowerModelEquivalence:
    @pytest.fixture(scope="class")
    def model(self, tiny_flow, fabric25):
        activity = estimate_activity(tiny_flow.netlist, 0.2)
        return PowerModel(tiny_flow, fabric25, activity)

    def test_dynamic_power_matches_reference(self, model):
        for f_hz in (0.0, 1e8, 3.7e8):
            np.testing.assert_allclose(
                model.dynamic_power(f_hz),
                model.dynamic_power_reference(f_hz),
                rtol=1e-9,
            )

    def test_leakage_power_matches_reference(self, model, tiny_flow):
        rng = np.random.default_rng(11)
        t_tiles = 25.0 + 50.0 * rng.random(tiny_flow.n_tiles)
        np.testing.assert_allclose(
            model.leakage_power(t_tiles),
            model.leakage_power_reference(t_tiles),
            rtol=1e-9,
        )

    def test_negative_frequency_rejected(self, model):
        with pytest.raises(ValueError, match="negative frequency"):
            model.dynamic_power(-1.0)


class TestSingleIsBatchOfOne:
    """Each scalar STA, power, voltage and thermal call equals row 0 of a
    batch of one through the same layer's batched entry point, bit for bit."""

    VDD = 0.7

    @pytest.fixture(scope="class")
    def sha(self, vtr_flows, fabric25):
        flow = vtr_flows["sha"]
        model = PowerModel(flow, fabric25, estimate_activity(flow.netlist, 0.2))
        temps = 25.0 + 60.0 * np.random.default_rng(5).random(flow.n_tiles)
        return flow, model, temps

    def test_critical_path(self, sha, fabric25):
        flow, _, temps = sha
        tile_scale = VoltageScaling().delay_scale_tiles(self.VDD, temps)
        for scale in (None, resource_delay_scale(tile_scale)):
            single = flow.timing.critical_path(fabric25, temps, scale)
            (row,) = flow.timing.critical_path_batch(
                fabric25, temps[None], None if scale is None else scale[None]
            )
            assert single == row

    def test_evaluate(self, sha):
        _, model, temps = sha
        single = model.evaluate(2.1e8, temps)
        batch = model.evaluate_batch(np.array([2.1e8]), temps[None])
        np.testing.assert_array_equal(single.dynamic_w, batch.dynamic_w[0])
        np.testing.assert_array_equal(single.leakage_w, batch.leakage_w[0])

    def test_evaluate_at_voltage(self, sha):
        _, model, temps = sha
        scaling = VoltageScaling()
        single = model.evaluate_at_voltage(2.1e8, temps, scaling, self.VDD)
        batch = model.evaluate_at_voltage_batch(
            np.array([2.1e8]), temps[None], scaling, np.array([self.VDD])
        )
        np.testing.assert_array_equal(single.dynamic_w, batch.dynamic_w[0])
        np.testing.assert_array_equal(single.leakage_w, batch.leakage_w[0])
        # At the nominal supply it is the unscaled model (the rail-split
        # leakage tables sum in another order, hence not bit for bit).
        nominal = model.evaluate_at_voltage(2.1e8, temps, scaling, VDD_NOMINAL)
        plain = model.evaluate(2.1e8, temps)
        np.testing.assert_allclose(nominal.total_w, plain.total_w, rtol=1e-12)

    def test_delay_scale_tiles(self, sha):
        _, _, temps = sha
        scaling = VoltageScaling()
        np.testing.assert_array_equal(
            scaling.delay_scale_tiles(self.VDD, temps),
            scaling.delay_scale_cells(np.array([self.VDD]), temps[None])[0],
        )

    def test_solve(self, sha):
        flow, _, _ = sha
        solver = ThermalSolver(flow.layout)
        power = np.random.default_rng(9).random(flow.n_tiles) * 1e-3
        np.testing.assert_array_equal(
            solver.solve(power, 25.0), solver.solve(power[None], 25.0)[0]
        )


class TestGuardbandEquivalence:
    def test_vtr_guardband_frequencies_match_seed(self, vtr_flows, fabric25):
        for name, flow in vtr_flows.items():
            fast = thermal_aware_guardband(flow, fabric25, t_ambient=25.0)
            with seed_implementation():
                seed = thermal_aware_guardband(flow, fabric25, t_ambient=25.0)
            assert fast.iterations == seed.iterations, name
            assert fast.frequency_hz == pytest.approx(
                seed.frequency_hz, rel=1e-9
            ), name
            np.testing.assert_allclose(
                fast.tile_temperatures, seed.tile_temperatures, rtol=1e-9
            )

    def test_seed_mode_reaches_seed_paths_every_iteration(
        self, tiny_flow, fabric25, monkeypatch
    ):
        """Algorithm 1 runs on batched rows; inside seed_implementation()
        every row must still take the seed STA, thermal and power paths,
        or the equivalence checks would compare the fast path to itself."""
        calls = {name: 0 for name in (
            "_arrival_pass_reference", "solve_unfactored",
            "dynamic_power_reference", "leakage_power_reference",
        )}

        def spy(cls, name):
            real = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        spy(TimingAnalyzer, "_arrival_pass_reference")
        spy(ThermalSolver, "solve_unfactored")
        spy(PowerModel, "dynamic_power_reference")
        spy(PowerModel, "leakage_power_reference")
        with seed_implementation():
            result = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        assert result.iterations >= 2
        # One STA per iteration plus the final re-time at T + delta_t.
        assert calls["_arrival_pass_reference"] == result.iterations + 1
        assert calls["solve_unfactored"] == result.iterations
        assert calls["dynamic_power_reference"] == result.iterations
        assert calls["leakage_power_reference"] == result.iterations


# -- phase timing (repro.observe) ---------------------------------------------


class TestPhaseTiming:
    def test_disabled_by_default(self, tiny_flow, fabric25):
        assert not observe.is_enabled()
        result = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        with observe.enabled(sink=observe.InMemorySink()):
            traced = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        # Results carry no wall-clock time, so tracing leaves them equal.
        assert traced.history == result.history

    def test_enabled_records_phase_timings(self, tiny_flow, fabric25):
        sink = observe.InMemorySink()
        with observe.enabled(sink=sink):
            result = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)
        spans = sink.spans()
        iterations = [s for s in spans if s["name"] == "guardband.iteration"]
        assert len(iterations) == result.iterations
        for iteration in iterations:
            phases = [s for s in spans if s["parent_id"] == iteration["span_id"]]
            assert sorted(s["name"] for s in phases) == [
                "guardband.power", "guardband.sta", "guardband.thermal",
            ]
            assert all(s["duration_s"] >= 0.0 for s in phases)

    def test_nesting_restores_disabled_state(self):
        assert not observe.is_enabled()
        with observe.enabled():
            assert observe.is_enabled()
            with observe.enabled():
                assert observe.is_enabled()
            assert observe.is_enabled()
        assert not observe.is_enabled()
