"""Tests for temperature-grade portfolio planning (Sec. III-C extension)."""

import pytest

from repro.core.architecture import expected_delay, select_design_corner
from repro.core.grades import plan_temperature_grades


class TestGradePlanning:
    def test_single_grade_matches_eq1_selection(self, arch):
        plan = plan_temperature_grades(
            1, 0.0, 100.0, candidates=(0.0, 25.0, 100.0), arch=arch
        )
        choice = select_design_corner(
            0.0, 100.0, candidates=(0.0, 25.0, 100.0), arch=arch
        )
        assert len(plan.bands) == 1
        assert plan.bands[0].corner_celsius == choice.corner_celsius

    def test_bands_tile_the_range(self, arch):
        plan = plan_temperature_grades(
            3, 0.0, 100.0, candidates=(0.0, 25.0, 100.0), arch=arch
        )
        assert plan.bands[0].t_low == 0.0
        assert plan.bands[-1].t_high == 100.0
        for a, b in zip(plan.bands, plan.bands[1:]):
            assert a.t_high == pytest.approx(b.t_low)

    def test_more_grades_never_worse(self, arch):
        candidates = (0.0, 25.0, 100.0)
        one = plan_temperature_grades(1, candidates=candidates, arch=arch)
        three = plan_temperature_grades(3, candidates=candidates, arch=arch)
        assert three.average_delay_s <= one.average_delay_s * (1 + 1e-12)

    def test_band_corners_ordered_with_temperature(self, arch):
        plan = plan_temperature_grades(
            3, 0.0, 100.0, candidates=(0.0, 25.0, 100.0), arch=arch
        )
        corners = [band.corner_celsius for band in plan.bands]
        assert corners == sorted(corners)

    def test_band_expected_delay_consistent(self, arch):
        from repro.coffe.fabric import build_fabric

        plan = plan_temperature_grades(
            2, 0.0, 100.0, candidates=(0.0, 100.0), arch=arch, grid_step=10.0
        )
        for band in plan.bands:
            fabric = build_fabric(band.corner_celsius, arch)
            reference = expected_delay(fabric, band.t_low, band.t_high)
            assert band.expected_delay_s == pytest.approx(reference, rel=0.01)

    def test_rejects_bad_inputs(self, arch):
        with pytest.raises(ValueError):
            plan_temperature_grades(0, arch=arch)
        with pytest.raises(ValueError):
            plan_temperature_grades(2, 80.0, 20.0, arch=arch)
        with pytest.raises(ValueError):
            plan_temperature_grades(2, candidates=(), arch=arch)
