"""Deeper Algorithm 1 behaviour: fixed-point structure and telemetry."""

import re

import numpy as np
import pytest

from repro.activity.ace import estimate_activity
from repro.coffe.fabric import T_MAX_CELSIUS
from repro.core.guardband import (
    DELTA_T_CELSIUS,
    GuardbandConfig,
    GuardbandError,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency
from repro.power.model import PowerModel
from repro.thermal.hotspot import ThermalSolver
from repro.thermal.package import ThermalPackage


class TestFixedPoint:
    def test_converged_profile_is_self_consistent(self, tiny_flow, fabric25):
        """At convergence, re-running one more iteration moves every tile by
        at most delta_t — the fixed-point contract of Algorithm 1."""
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        activity = estimate_activity(tiny_flow.netlist, 0.15)
        model = PowerModel(tiny_flow, fabric25, activity)
        solver = ThermalSolver(tiny_flow.layout)
        report = tiny_flow.timing.critical_path(
            fabric25, result.tile_temperatures
        )
        power = model.evaluate(report.frequency_hz, result.tile_temperatures)
        t_next = solver.solve(power.total_w, 25.0)
        assert float(np.max(np.abs(t_next - result.tile_temperatures))) <= (
            result.delta_t + 1e-9
        )

    def test_frequency_accounts_for_margin(self, tiny_flow, fabric25):
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        retimed = tiny_flow.timing.critical_path(
            fabric25, result.tile_temperatures + result.delta_t
        )
        assert result.frequency_hz == pytest.approx(retimed.frequency_hz)

    def test_power_monotone_along_iterations(self, tiny_flow, fabric25):
        """Leakage grows with temperature, so total power must not drop as
        the temperature estimate rises across iterations."""
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        powers = [step.total_power_w for step in result.history]
        temps = [step.mean_tile_celsius for step in result.history]
        for (p1, t1), (p2, t2) in zip(
            zip(powers, temps), zip(powers[1:], temps[1:])
        ):
            if t2 >= t1:
                # Frequency also changes, but at these operating points the
                # leakage increase dominates any frequency reduction.
                assert p2 >= p1 * 0.97

    def test_deltas_shrink(self, tiny_flow, fabric25):
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        deltas = [step.max_delta_celsius for step in result.history]
        assert deltas == sorted(deltas, reverse=True)

    def test_explicit_activity_object_honoured(self, tiny_flow, fabric25):
        lazy = estimate_activity(tiny_flow.netlist, 0.05)
        busy = estimate_activity(tiny_flow.netlist, 0.50)
        r_lazy = thermal_aware_guardband(tiny_flow, fabric25, 25.0, activity=lazy)
        r_busy = thermal_aware_guardband(tiny_flow, fabric25, 25.0, activity=busy)
        assert r_busy.total_power_w > r_lazy.total_power_w

    def test_result_metadata(self, tiny_flow, fabric25):
        result = thermal_aware_guardband(
            tiny_flow, fabric25, 40.0, config=GuardbandConfig(delta_t=3.0)
        )
        assert result.t_ambient == 40.0
        assert result.delta_t == 3.0
        assert result.critical_path_s == pytest.approx(1.0 / result.frequency_hz)
        assert len(result.tile_temperatures) == tiny_flow.n_tiles


class TestAmbientSweep:
    def test_gain_monotone_in_ambient(self, tiny_flow, fabric25):
        """Cooler ambients always leave more recoverable margin."""
        freqs = [
            thermal_aware_guardband(tiny_flow, fabric25, t).frequency_hz
            for t in (10.0, 25.0, 40.0, 55.0, 70.0, 85.0)
        ]
        assert freqs == sorted(freqs, reverse=True)


class TestAboveTheTables:
    """No clock for a die whose re-time profile ``T_conv + delta_t`` leaves
    the fabric's tables: every lookup there would read the 100 C edge."""

    @staticmethod
    def _hottest_tile(error, layout):
        match = re.search(r"tile \((\d+), (\d+)\) reaches ([\d.]+) C", str(error))
        assert match, str(error)
        x, y, celsius = int(match[1]), int(match[2]), float(match[3])
        return layout.tile_index(x, y), celsius

    def test_hot_ambient_raises_instead_of_worst_case_clock(
        self, tiny_flow, fabric25
    ):
        # At 96 C the die self-heats past 100 C; the clipped tables would
        # report exactly the worst-case clock, which is optimistic there.
        with pytest.raises(GuardbandError, match="100 C table limit") as info:
            thermal_aware_guardband(tiny_flow, fabric25, 96.0)
        error = info.value
        tile, celsius = self._hottest_tile(error, tiny_flow.layout)
        assert tile == int(error.last_temperatures.argmax())
        assert celsius == pytest.approx(
            error.last_temperatures.max() + DELTA_T_CELSIUS, abs=0.05
        )
        assert celsius > T_MAX_CELSIUS
        assert error.t_ambient == 96.0
        assert error.iterations == len(error.history) >= 1

    def test_weak_package_raises_instead_of_reporting_a_clock(
        self, tiny_flow, fabric25
    ):
        # A near-adiabatic package settles near 826 C, far past the tables.
        config = GuardbandConfig(
            package=ThermalPackage(g_vertical_w_per_k=3e-7)
        )
        with pytest.raises(GuardbandError, match="table limit") as info:
            thermal_aware_guardband(tiny_flow, fabric25, 25.0, config=config)
        assert info.value.last_temperatures.max() > 500.0

    def test_hot_cell_inside_the_tables_keeps_its_clock(
        self, tiny_flow, fabric25
    ):
        result = thermal_aware_guardband(tiny_flow, fabric25, 80.0)
        assert (
            result.tile_temperatures.max() + result.delta_t <= T_MAX_CELSIUS
        )
        assert result.frequency_hz > worst_case_frequency(tiny_flow, fabric25)

    def test_energy_cell_above_the_tables_fails_alone(
        self, tiny_flow, fabric25
    ):
        config = GuardbandConfig(
            mode="energy",
            target_frequency_hz=worst_case_frequency(tiny_flow, fabric25),
        )
        cool, hot = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [25.0, 96.0], config=config
        )
        assert isinstance(hot, GuardbandError)
        assert "does not close at nominal VDD" in str(hot)
        assert "100 C table limit" in str(hot)
        alone = thermal_aware_guardband(tiny_flow, fabric25, 25.0, config=config)
        assert cool.vdd_v == alone.vdd_v
        np.testing.assert_array_equal(
            cool.tile_temperatures, alone.tile_temperatures
        )
