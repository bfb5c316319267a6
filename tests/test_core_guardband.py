"""Tests for Algorithm 1 (thermal-aware guardbanding) and the baseline."""

import numpy as np
import pytest

from repro.core.guardband import (
    GuardbandConfig,
    GuardbandError,
    GuardbandResult,
    thermal_aware_guardband,
)
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.thermal.package import ThermalPackage


@pytest.fixture(scope="module")
def result(tiny_flow, fabric25) -> GuardbandResult:
    return thermal_aware_guardband(tiny_flow, fabric25, t_ambient=25.0)


class TestAlgorithm1:
    def test_beats_worst_case_baseline(self, tiny_flow, fabric25, result):
        f_wc = worst_case_frequency(tiny_flow, fabric25)
        assert result.frequency_hz > f_wc
        gain = guardband_gain(result.frequency_hz, f_wc)
        # Paper Fig. 6 band at 25 C ambient.
        assert 0.15 < gain < 0.55

    def test_never_beats_optimistic_ambient_timing(self, tiny_flow, fabric25, result):
        # The guardbanded clock accounts for self-heating + delta_t, so it
        # must be slower than naively timing everything at Tamb.
        naive = tiny_flow.timing.critical_path(
            fabric25, np.full(tiny_flow.n_tiles, 25.0)
        )
        assert result.frequency_hz < naive.frequency_hz

    def test_converges_in_a_few_iterations(self, result):
        # Paper: "often takes a few (less than ten) iterations".
        assert 1 <= result.iterations < 10

    def test_temperatures_above_ambient(self, result):
        assert np.all(result.tile_temperatures >= result.t_ambient - 1e-9)

    def test_mean_rise_small_at_low_activity(self, result):
        # Paper Sec. IV-B: ~2 C converged rise for the VTR designs.
        assert 0.5 < result.mean_rise_celsius < 8.0

    def test_history_records_iterations(self, result):
        assert len(result.history) == result.iterations
        assert result.history[-1].max_delta_celsius <= result.delta_t

    def test_higher_ambient_lower_frequency(self, tiny_flow, fabric25, result):
        hot = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=70.0)
        assert hot.frequency_hz < result.frequency_hz

    def test_gain_shrinks_with_ambient(self, tiny_flow, fabric25, result):
        # Paper Figs. 6-7: ~36.5 % at 25 C vs ~14 % at 70 C.
        f_wc = worst_case_frequency(tiny_flow, fabric25)
        gain25 = guardband_gain(result.frequency_hz, f_wc)
        hot = thermal_aware_guardband(tiny_flow, fabric25, t_ambient=70.0)
        gain70 = guardband_gain(hot.frequency_hz, f_wc)
        assert gain70 < gain25
        assert 0.02 < gain70 < 0.25

    def test_higher_activity_more_heat(self, tiny_flow, fabric25):
        calm = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=GuardbandConfig(base_activity=0.05)
        )
        busy = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=GuardbandConfig(base_activity=0.6)
        )
        assert busy.mean_rise_celsius > calm.mean_rise_celsius
        assert busy.frequency_hz <= calm.frequency_hz * (1 + 1e-9)

    def test_delta_t_margin_costs_frequency(self, tiny_flow, fabric25):
        tight = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=GuardbandConfig(delta_t=1.0)
        )
        loose = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=GuardbandConfig(delta_t=6.0)
        )
        assert loose.frequency_hz < tight.frequency_hz

    def test_rejects_nonpositive_delta_t(self):
        # NaN never meets the convergence test and inf meets it at once:
        # both would run Algorithm 1 to a misleading result.
        for delta_t in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                GuardbandConfig(delta_t=delta_t)

    def test_nonconvergence_raises(self, tiny_flow, fabric25):
        # A pathologically weak package with a tight threshold cannot settle
        # within one iteration budget.
        weak = ThermalPackage(g_vertical_w_per_k=1e-6, g_lateral_w_per_k=1e-5)
        with pytest.raises(GuardbandError, match="converge"):
            thermal_aware_guardband(
                tiny_flow, fabric25, 25.0,
                config=GuardbandConfig(
                    delta_t=0.05, max_iterations=2, package=weak
                ),
            )

    def test_max_gradient_nonnegative(self, result):
        assert result.max_gradient_celsius >= 0.0

    def test_config_validates_thermal_weight(self):
        with pytest.raises(ValueError, match="thermal_weight"):
            GuardbandConfig(thermal_weight=-0.1)
        with pytest.raises(ValueError, match="thermal_weight"):
            GuardbandConfig(thermal_weight=float("nan"))
        with pytest.raises(ValueError, match="thermal_weight"):
            GuardbandConfig(thermal_weight=float("inf"))
        assert GuardbandConfig(thermal_weight=0.7).thermal_weight == 0.7


class TestWorstCaseBaseline:
    def test_uniform_100c_timing(self, tiny_flow, fabric25):
        f_wc = worst_case_frequency(tiny_flow, fabric25)
        direct = tiny_flow.timing.critical_path(
            fabric25, np.full(tiny_flow.n_tiles, 100.0)
        )
        assert f_wc == pytest.approx(direct.frequency_hz)

    def test_other_corner_temperature(self, tiny_flow, fabric25):
        assert worst_case_frequency(
            tiny_flow, fabric25, t_worst=85.0
        ) > worst_case_frequency(tiny_flow, fabric25, t_worst=100.0)

    def test_gain_helper_validates(self):
        with pytest.raises(ValueError):
            guardband_gain(1e8, 0.0)
