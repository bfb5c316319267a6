"""Tests for the temperature laws and device parameter sets."""

import pytest

from repro.technology import (
    HP_NMOS,
    HP_PMOS,
    LP_NMOS,
    LP_PMOS,
    T_REFERENCE_K,
    celsius_to_kelvin,
    device_by_name,
    kelvin_to_celsius,
    mobility_factor,
    thermal_voltage,
    threshold_voltage,
)
from repro.technology.ptm22 import DeviceParams
from repro.technology.temperature import arrhenius_scale


class TestConversions:
    def test_celsius_kelvin_roundtrip(self):
        assert kelvin_to_celsius(celsius_to_kelvin(37.5)) == pytest.approx(37.5)

    def test_reference_is_25c(self):
        assert kelvin_to_celsius(T_REFERENCE_K) == pytest.approx(25.0)

    def test_zero_celsius(self):
        assert celsius_to_kelvin(0.0) == pytest.approx(273.15)


class TestThermalVoltage:
    def test_room_temperature_value(self):
        # kT/q at 300 K is the textbook 25.85 mV.
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_monotonic_in_temperature(self):
        assert thermal_voltage(373.0) > thermal_voltage(273.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            thermal_voltage(0.0)


class TestMobility:
    def test_unity_at_reference(self):
        assert mobility_factor(T_REFERENCE_K) == pytest.approx(1.0)

    def test_degrades_when_hot(self):
        assert mobility_factor(celsius_to_kelvin(100.0)) < 1.0

    def test_improves_when_cold(self):
        assert mobility_factor(celsius_to_kelvin(0.0)) > 1.0

    def test_exponent_controls_slope(self):
        hot = celsius_to_kelvin(100.0)
        assert mobility_factor(hot, 2.0) < mobility_factor(hot, 1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mobility_factor(-5.0)


class TestThresholdVoltage:
    def test_drops_with_temperature(self):
        cold = threshold_voltage(0.32, celsius_to_kelvin(0.0), 0.3e-3)
        hot = threshold_voltage(0.32, celsius_to_kelvin(100.0), 0.3e-3)
        assert hot < cold

    def test_reference_value(self):
        assert threshold_voltage(0.32, T_REFERENCE_K, 0.3e-3) == pytest.approx(0.32)

    def test_slope_magnitude(self):
        # 0.3 mV/K over 100 K is 30 mV.
        delta = threshold_voltage(0.32, T_REFERENCE_K, 0.3e-3) - threshold_voltage(
            0.32, T_REFERENCE_K + 100.0, 0.3e-3
        )
        assert delta == pytest.approx(0.03)


class TestArrhenius:
    def test_unity_at_reference(self):
        assert arrhenius_scale(T_REFERENCE_K, 0.1) == pytest.approx(1.0)

    def test_increases_with_temperature(self):
        assert arrhenius_scale(celsius_to_kelvin(100.0), 0.1) > 1.0

    def test_higher_activation_steeper(self):
        hot = celsius_to_kelvin(100.0)
        assert arrhenius_scale(hot, 0.3) > arrhenius_scale(hot, 0.1)


class TestDeviceParams:
    def test_lookup_by_name(self):
        assert device_by_name("hp_nmos") is HP_NMOS
        assert device_by_name("lp_pmos") is LP_PMOS

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown device"):
            device_by_name("finfet_7nm")

    def test_lp_has_higher_threshold(self):
        assert LP_NMOS.vth0 > HP_NMOS.vth0
        assert LP_PMOS.vth0 > HP_PMOS.vth0

    def test_pmos_weaker_than_nmos(self):
        assert HP_PMOS.k_drive < HP_NMOS.k_drive

    def test_scaled_returns_modified_copy(self):
        variant = HP_NMOS.scaled(vth0=0.4)
        assert variant.vth0 == pytest.approx(0.4)
        assert HP_NMOS.vth0 == pytest.approx(0.32)
        assert variant.k_drive == HP_NMOS.k_drive

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValueError, match="polarity"):
            DeviceParams(
                name="x", polarity="z", vth0=0.3, kvt=1e-4, k_drive=1e-4,
                alpha=1.3, mu_exp=1.5, subthreshold_n=1.5, lam=0.1,
                vdsat=0.25, c_gate=1e-16, c_drain=1e-16,
            )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            HP_NMOS.scaled(alpha=3.0)

    def test_lp_leakage_is_flatter(self):
        # The BRAM core's leakage is dominated by the near-flat
        # gate/junction component (paper Table II's quadratic BRAM fit).
        assert LP_NMOS.gate_leak_fraction > HP_NMOS.gate_leak_fraction
        assert LP_NMOS.gate_leak_ea_ev < HP_NMOS.gate_leak_ea_ev
