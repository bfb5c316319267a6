"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.params import ArchParams
from repro.coffe.subcircuits import MuxModel, soft_fabric_circuits
from repro.core.guardband import (
    GuardbandConfig,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.reporting.figures import format_bar_chart
from repro.reporting.tables import format_table
from repro.spice.devices import (
    drain_current,
    drain_current_and_derivatives,
    effective_resistance,
    leakage_current,
)
from repro.spice.netlist import PiecewiseLinearSource
from repro.technology import HP_NMOS, celsius_to_kelvin
from repro.thermal.hotspot import ThermalSolver

temps = st.floats(min_value=celsius_to_kelvin(0.0), max_value=celsius_to_kelvin(100.0))
voltages = st.floats(min_value=0.0, max_value=0.8)
widths = st.floats(min_value=1.0, max_value=64.0)


class TestDeviceProperties:
    @given(vgs=voltages, vds=st.floats(min_value=1e-4, max_value=0.8), t=temps,
           w=widths)
    @settings(max_examples=120, deadline=None)
    def test_current_positive_and_finite(self, vgs, vds, t, w):
        i = drain_current(HP_NMOS, vgs, vds, w, t)
        assert i > 0.0 and math.isfinite(i)

    @given(vgs=voltages, vds=st.floats(min_value=1e-3, max_value=0.8), t=temps)
    @settings(max_examples=80, deadline=None)
    def test_derivatives_consistent_with_value(self, vgs, vds, t):
        i, gm, gds = drain_current_and_derivatives(HP_NMOS, vgs, vds, 2.0, t)
        assert i == pytest.approx(drain_current(HP_NMOS, vgs, vds, 2.0, t))
        assert gm >= 0.0 and gds >= 0.0

    @given(t=temps, w=widths)
    @settings(max_examples=60, deadline=None)
    def test_resistance_positive_and_width_monotone(self, t, w):
        r = effective_resistance(HP_NMOS, 0.8, w, t)
        r2 = effective_resistance(HP_NMOS, 0.8, 2.0 * w, t)
        assert 0.0 < r2 < r

    @given(t1=temps, t2=temps)
    @settings(max_examples=60, deadline=None)
    def test_leakage_monotone_in_temperature(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert leakage_current(HP_NMOS, 0.8, 1.0, lo) <= leakage_current(
            HP_NMOS, 0.8, 1.0, hi
        ) * (1.0 + 1e-12)


class TestSubcircuitProperties:
    @given(
        w_pass=st.floats(min_value=1.0, max_value=16.0),
        w1=st.floats(min_value=1.0, max_value=16.0),
        w2=st.floats(min_value=1.0, max_value=32.0),
        t=temps,
    )
    @settings(max_examples=60, deadline=None)
    def test_mux_delay_area_leakage_positive(self, w_pass, w1, w2, t):
        mux = soft_fabric_circuits(ArchParams())["sb_mux"]
        sizes = {"w_pass": w_pass, "w_inv1": w1, "w_inv2": w2}
        assert mux.delay_seconds(sizes, t) > 0.0
        assert mux.area_um2(sizes) > 0.0
        assert mux.leakage_watts(sizes, t) > 0.0

    @given(n=st.integers(min_value=2, max_value=96))
    @settings(max_examples=40, deadline=None)
    def test_mux_two_level_split_covers_inputs(self, n):
        mux = MuxModel("m", n, 0.8)
        assert mux.level1 * mux.level2 >= n

    @given(
        w=st.floats(min_value=1.0, max_value=16.0),
        t_lo=temps, t_hi=temps,
    )
    @settings(max_examples=60, deadline=None)
    def test_lut_delay_monotone_in_temperature(self, w, t_lo, t_hi):
        lut = soft_fabric_circuits(ArchParams())["lut"]
        lo, hi = sorted((t_lo, t_hi))
        sizes = {"w_pass": w, "w_mid": 2.0, "w_out": 4.0}
        assert lut.delay_seconds(sizes, lo) <= lut.delay_seconds(sizes, hi) * (
            1.0 + 1e-12
        )


class TestGeneratorProperties:
    @given(
        n_luts=st.integers(min_value=2, max_value=120),
        depth=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        ff_ratio=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_netlists_always_valid(self, n_luts, depth, seed, ff_ratio):
        spec = NetlistSpec(
            "prop", n_luts=n_luts, depth=depth, seed=seed, ff_ratio=ff_ratio
        )
        netlist = generate_netlist(spec)  # validate() runs inside
        assert netlist.count.__self__ is netlist
        assert netlist.n_nets > 0
        for net in netlist.nets:
            assert net.sinks

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_generation_is_pure(self, seed):
        spec = NetlistSpec("p", n_luts=20, depth=4, seed=seed)
        a, b = generate_netlist(spec), generate_netlist(spec)
        assert a.stats() == b.stats()


class TestReportingProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_bar_chart_never_crashes(self, values):
        labels = [f"b{i}" for i in range(len(values))]
        text = format_bar_chart(labels, values, title="t")
        assert len(text.splitlines()) == len(values) + 1

    @given(
        rows=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.characters(
                        codec="ascii", categories=("L", "N", "P", "Zs")
                    ),
                    max_size=8,
                ),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1, max_size=10,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_table_row_count(self, rows):
        text = format_table(["name", "value"], rows)
        assert len(text.splitlines()) == len(rows) + 2


class TestPwlProperties:
    @given(
        points=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e-6),
                st.floats(min_value=-2.0, max_value=2.0),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda p: p[0],
        ),
        t=st.floats(min_value=-1e-6, max_value=2e-6),
    )
    @settings(max_examples=60, deadline=None)
    def test_pwl_stays_within_value_envelope(self, points, t):
        points = sorted(points)
        src = PiecewiseLinearSource(points)
        lo = min(v for _, v in points)
        hi = max(v for _, v in points)
        assert lo - 1e-12 <= src(t) <= hi + 1e-12


ambients = st.floats(min_value=0.0, max_value=80.0)


class TestAlgorithmOneProperties:
    """Algorithm 1 on ``tiny`` (D25) over pairs of drawn ambients."""

    @given(t1=ambients, t2=ambients)
    @settings(max_examples=15, deadline=None)
    def test_frequency_non_increasing_in_ambient(
        self, tiny_flow, fabric25, t1, t2
    ):
        cool, hot = thermal_aware_guardband_batch(
            tiny_flow, fabric25, sorted((t1, t2))
        )
        assert cool.frequency_hz >= hot.frequency_hz

    @given(t1=ambients, t2=ambients)
    @settings(max_examples=10, deadline=None)
    def test_energy_vdd_non_decreasing_in_ambient(
        self, tiny_flow, fabric25, t1, t2
    ):
        config = GuardbandConfig(
            mode="energy",
            target_frequency_hz=worst_case_frequency(tiny_flow, fabric25),
        )
        cool, hot = thermal_aware_guardband_batch(
            tiny_flow, fabric25, sorted((t1, t2)), config=config
        )
        assert cool.vdd_v <= hot.vdd_v

    @given(t=ambients)
    @settings(max_examples=15, deadline=None)
    def test_converged_tiles_at_or_above_ambient(self, tiny_flow, fabric25, t):
        result = thermal_aware_guardband(tiny_flow, fabric25, t)
        assert result.tile_temperatures.min() >= t

    @given(d1=st.floats(min_value=0.05, max_value=10.0),
           d2=st.floats(min_value=0.05, max_value=10.0), t=ambients)
    @settings(max_examples=15, deadline=None)
    def test_frequency_non_increasing_in_delta_t(
        self, tiny_flow, fabric25, d1, d2, t
    ):
        tight, loose = (
            thermal_aware_guardband(
                tiny_flow, fabric25, t, config=GuardbandConfig(delta_t=d)
            )
            for d in sorted((d1, d2))
        )
        assert tight.frequency_hz >= loose.frequency_hz


tile_watts = st.floats(min_value=0.0, max_value=2e-3)


class TestThermalSolverProperties:
    """``ThermalSolver.solve`` on ``tiny``'s layout: the steady state is
    ``T = ambient + G^-1 P`` with a symmetric conductance matrix ``G``."""

    @pytest.fixture(scope="class")
    def solver(self, tiny_flow):
        return ThermalSolver(tiny_flow.layout)

    @given(data=st.data(), a=st.floats(min_value=0.0, max_value=10.0),
           b=st.floats(min_value=0.0, max_value=10.0), t=ambients)
    @settings(max_examples=40, deadline=None)
    def test_rise_is_linear_in_power(self, solver, data, a, b, t):
        n = solver.layout.n_tiles
        p1, p2 = (
            np.array(data.draw(st.lists(tile_watts, min_size=n, max_size=n)))
            for _ in range(2)
        )
        rise1, rise2, rise = solver.solve(
            np.stack([p1, p2, a * p1 + b * p2]), t
        ) - t
        expected = a * rise1 + b * rise2
        scale = max(1.0, float(np.abs(expected).max()))
        np.testing.assert_allclose(rise, expected, rtol=0.0, atol=1e-9 * scale)

    @given(data=st.data(), t=ambients)
    @settings(max_examples=40, deadline=None)
    def test_rise_is_reciprocal(self, solver, data, t):
        n = solver.layout.n_tiles
        i = data.draw(st.integers(min_value=0, max_value=n - 1))
        j = data.draw(st.integers(min_value=0, max_value=n - 1))
        unit = np.eye(n)
        rise_i_from_j = solver.solve(unit[j], t)[i] - t
        rise_j_from_i = solver.solve(unit[i], t)[j] - t
        assert rise_i_from_j == pytest.approx(rise_j_from_i, rel=1e-9)
