"""Tests for the related-work comparison baselines."""

import pytest

from repro.core.baselines import (
    coldest_tile,
    hottest_tile,
    oracle_frequency,
    sensor_uniform_baseline,
)
from repro.core.guardband import thermal_aware_guardband
from repro.core.margins import worst_case_frequency


@pytest.fixture(scope="module")
def result(tiny_flow, fabric25):
    return thermal_aware_guardband(tiny_flow, fabric25, 25.0)


class TestOracle:
    def test_bounds_algorithm1_from_above(self, tiny_flow, fabric25, result):
        oracle = oracle_frequency(tiny_flow, fabric25, result)
        assert result.frequency_hz <= oracle * (1 + 1e-12)

    def test_beats_worst_case(self, tiny_flow, fabric25, result):
        assert oracle_frequency(tiny_flow, fabric25, result) > worst_case_frequency(
            tiny_flow, fabric25
        )

    def test_delta_t_cost_is_small(self, tiny_flow, fabric25, result):
        oracle = oracle_frequency(tiny_flow, fabric25, result)
        assert result.frequency_hz / oracle > 0.9


class TestSensorBaseline:
    def test_hot_sensor_is_safe(self, tiny_flow, fabric25, result):
        baseline = sensor_uniform_baseline(
            tiny_flow, fabric25, result, sensor_tile=hottest_tile(result)
        )
        assert baseline.is_safe

    def test_cold_sensor_reads_lower(self, tiny_flow, fabric25, result):
        cold = sensor_uniform_baseline(
            tiny_flow, fabric25, result, sensor_tile=coldest_tile(result)
        )
        hot = sensor_uniform_baseline(
            tiny_flow, fabric25, result, sensor_tile=hottest_tile(result)
        )
        assert cold.sensor_celsius <= hot.sensor_celsius
        assert cold.frequency_hz >= hot.frequency_hz

    def test_margin_restores_safety(self, tiny_flow, fabric25, result):
        gradient = float(
            result.tile_temperatures.max() - result.tile_temperatures.min()
        )
        padded = sensor_uniform_baseline(
            tiny_flow, fabric25, result,
            sensor_tile=coldest_tile(result),
            sensor_margin_celsius=gradient + 0.1,
        )
        assert padded.is_safe

    def test_rejects_bad_inputs(self, tiny_flow, fabric25, result):
        with pytest.raises(ValueError, match="out of range"):
            sensor_uniform_baseline(tiny_flow, fabric25, result, sensor_tile=10**6)
        with pytest.raises(ValueError, match="margin"):
            sensor_uniform_baseline(
                tiny_flow, fabric25, result, sensor_margin_celsius=-1.0
            )

    def test_tile_finders(self, result):
        temps = result.tile_temperatures
        assert temps[hottest_tile(result)] == temps.max()
        assert temps[coldest_tile(result)] == temps.min()
