"""Tests for the MNA netlist, DC solver and transient analysis."""

import numpy as np
import pytest

from repro.spice.dc import solve_dc
from repro.spice.measure import (
    crossing_time,
    propagation_delay,
    static_supply_current,
)
from repro.spice.netlist import (
    Circuit,
    PiecewiseLinearSource,
    step_waveform,
)
from repro.spice.transient import simulate_transient
from repro.spice.devices import effective_resistance
from repro.technology import HP_NMOS, HP_PMOS, VDD_NOMINAL, celsius_to_kelvin

T25 = celsius_to_kelvin(25.0)


def make_inverter(vin: float = 0.0, load_farads: float = 0.0) -> Circuit:
    c = Circuit("inv")
    c.voltage_source("vdd", "0", VDD_NOMINAL)
    c.voltage_source("in", "0", vin)
    c.mosfet(HP_PMOS, "out", "in", "vdd", 2.0, T25)
    c.mosfet(HP_NMOS, "out", "in", "0", 1.0, T25)
    if load_farads:
        c.capacitor("out", "0", load_farads)
    return c


class TestCircuitConstruction:
    def test_ground_aliases(self):
        c = Circuit()
        assert c.node("0") == 0
        assert c.node("gnd") == 0

    def test_node_indices_stable(self):
        c = Circuit()
        a = c.node("a")
        assert c.node("a") == a
        assert c.node_index("a") == a

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError, match="unknown node"):
            Circuit().node_index("nope")

    def test_resistor_rejects_nonpositive(self):
        c = Circuit()
        with pytest.raises(ValueError):
            c.resistor("a", "b", 0.0)

    def test_pwl_rejects_unsorted(self):
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseLinearSource([(1.0, 0.0), (0.5, 1.0)])

    def test_pwl_interpolates(self):
        src = PiecewiseLinearSource([(0.0, 0.0), (1.0, 1.0)])
        assert src(0.5) == pytest.approx(0.5)
        assert src(-1.0) == 0.0
        assert src(2.0) == 1.0


class TestDC:
    def test_resistor_divider(self):
        c = Circuit("divider")
        c.voltage_source("vin", "0", 1.0)
        c.resistor("vin", "mid", 1000.0)
        c.resistor("mid", "0", 3000.0)
        result = solve_dc(c)
        assert result.voltage("mid") == pytest.approx(0.75, abs=1e-9)

    def test_divider_source_current(self):
        c = Circuit("divider")
        c.voltage_source("vin", "0", 1.0)
        c.resistor("vin", "0", 500.0)
        result = solve_dc(c)
        # Sourcing supplies show negative branch current (into + pin).
        assert result.source_current(0) == pytest.approx(-2e-3, rel=1e-6)

    def test_inverter_rails(self):
        low = solve_dc(make_inverter(0.0), {"out": VDD_NOMINAL, "vdd": VDD_NOMINAL})
        high = solve_dc(make_inverter(VDD_NOMINAL), {"out": 0.0, "vdd": VDD_NOMINAL})
        assert low.voltage("out") == pytest.approx(VDD_NOMINAL, abs=1e-3)
        assert high.voltage("out") == pytest.approx(0.0, abs=1e-3)

    def test_inverter_transfer_monotonic(self):
        outs = []
        for vin in (0.0, 0.2, 0.4, 0.6, 0.8):
            c = make_inverter(vin)
            outs.append(
                solve_dc(c, {"out": VDD_NOMINAL - vin, "vdd": VDD_NOMINAL}).voltage(
                    "out"
                )
            )
        assert all(a >= b - 1e-9 for a, b in zip(outs, outs[1:]))

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.current_source("0", "n", 1e-3)  # pushes 1 mA into n
        c.resistor("n", "0", 2000.0)
        assert solve_dc(c).voltage("n") == pytest.approx(2.0, rel=1e-6)

    def test_leakage_measurement_positive(self):
        c = make_inverter(0.0)
        leak = static_supply_current(c)
        assert 0.0 < leak < 1e-6


class TestTransient:
    def test_rc_step_response(self):
        # RC charge: v(t) = V (1 - e^{-t/RC}); check at t = RC.
        r, cap, v = 1e3, 1e-15, 1.0
        c = Circuit("rc")
        c.voltage_source("in", "0", step_waveform(1e-13, 0.0, v, 1e-15))
        c.resistor("in", "out", r)
        c.capacitor("out", "0", cap)
        tau = r * cap
        res = simulate_transient(c, 1e-13 + 5 * tau, tau / 200, ["out"])
        t_at = 1e-13 + tau
        v_at = float(np.interp(t_at, res.times, res.waveform("out")))
        assert v_at == pytest.approx(v * (1 - np.exp(-1)), rel=0.02)

    def test_inverter_delay_close_to_elmore(self):
        load = 2e-15
        c = Circuit("inv-tran")
        c.voltage_source("vdd", "0", VDD_NOMINAL)
        c.voltage_source("in", "0", step_waveform(20e-12, 0.0, VDD_NOMINAL, 10e-12))
        c.mosfet(HP_PMOS, "out", "in", "vdd", 2.0, T25)
        c.mosfet(HP_NMOS, "out", "in", "0", 1.0, T25)
        c.capacitor("out", "0", load)
        res = simulate_transient(
            c, 200e-12, 0.2e-12, ["in", "out"],
            dc_initial_guess={"out": VDD_NOMINAL, "vdd": VDD_NOMINAL},
        )
        tpd = propagation_delay(res, "in", "out", VDD_NOMINAL, "rise")
        elmore = effective_resistance(HP_NMOS, VDD_NOMINAL, 1.0, T25) * load
        # The switch-level abstraction should agree within ~50 %.
        assert 0.5 * elmore < tpd < 2.0 * elmore

    def test_delay_grows_with_temperature(self):
        def tpd_at(t_c):
            tk = celsius_to_kelvin(t_c)
            c = Circuit()
            c.voltage_source("vdd", "0", VDD_NOMINAL)
            c.voltage_source("in", "0", step_waveform(20e-12, 0.0, VDD_NOMINAL, 5e-12))
            c.mosfet(HP_PMOS, "out", "in", "vdd", 2.0, tk)
            c.mosfet(HP_NMOS, "out", "in", "0", 1.0, tk)
            c.capacitor("out", "0", 2e-15)
            res = simulate_transient(
                c, 200e-12, 0.25e-12, ["in", "out"],
                dc_initial_guess={"out": VDD_NOMINAL, "vdd": VDD_NOMINAL},
            )
            return propagation_delay(res, "in", "out", VDD_NOMINAL, "rise")

        assert tpd_at(100.0) > 1.2 * tpd_at(0.0)

    def test_rejects_bad_timestep(self):
        c = make_inverter(0.0, load_farads=1e-15)
        with pytest.raises(ValueError):
            simulate_transient(c, 1e-12, 2e-12)


class TestMeasure:
    def test_crossing_time_interpolates(self):
        times = np.array([0.0, 1.0, 2.0])
        wave = np.array([0.0, 0.0, 1.0])
        assert crossing_time(times, wave, 0.5, "rise") == pytest.approx(1.5)

    def test_crossing_none_when_absent(self):
        times = np.array([0.0, 1.0])
        wave = np.array([0.0, 0.1])
        assert crossing_time(times, wave, 0.5, "rise") is None

    def test_crossing_rejects_bad_direction(self):
        with pytest.raises(ValueError, match="direction"):
            crossing_time(np.array([0.0]), np.array([0.0]), 0.5, "sideways")
