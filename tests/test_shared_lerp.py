"""One grid interpolation per temperature profile in Algorithm 1.

Every table the hot loop reads at a profile (the STA delay matrix, the
leakage table or its rail split, and in energy mode the leakage and
delay voltage scales) lerps on the same 1 C grid, so the kernel computes
the ``(i0, i1, frac)`` weights once and hands them to each layer as
``lerp=``.  The spies below count :func:`~repro.coffe.fabric.grid_lerp`
calls through the name every module binds; the property checks that
passing the weights equals omitting them, with ``==``.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cad.timing as timing_module
import repro.core.guardband as guardband_module
import repro.power.model as model_module
import repro.power.voltage as voltage_module
from repro.activity.ace import estimate_activity
from repro.coffe.fabric import grid_lerp
from repro.core.guardband import (
    GuardbandConfig,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency
from repro.power.model import PowerModel
from repro.power.voltage import (
    VDD_MIN_V,
    VDD_TOLERANCE_V,
    VoltageScaling,
    resource_delay_scale,
)
from repro.technology.ptm22 import VDD_NOMINAL

ROUNDS = math.ceil(math.log2((VDD_NOMINAL - VDD_MIN_V) / VDD_TOLERANCE_V))
"""Bisection rounds of an energy cell; with the nominal trial, 7 trials."""

MODULES = {
    "guardband": guardband_module,
    "timing": timing_module,
    "model": model_module,
    "voltage": voltage_module,
}


@pytest.fixture()
def lerp_calls(monkeypatch):
    """``grid_lerp`` calls per module that binds the name."""
    calls: Counter = Counter()
    for name, module in MODULES.items():
        def counting(t, _name=name):
            calls[_name] += 1
            return grid_lerp(t)

        monkeypatch.setattr(module, "grid_lerp", counting)
    return calls


@pytest.fixture(scope="module")
def energy_config(tiny_flow, fabric25):
    return GuardbandConfig(
        mode="energy",
        target_frequency_hz=worst_case_frequency(tiny_flow, fabric25),
    )


class TestOneInterpolationPerProfile:
    def test_frequency_cell(self, tiny_flow, fabric25, lerp_calls):
        result = thermal_aware_guardband(tiny_flow, fabric25, 25.0)
        assert result.iterations >= 2
        # One per iteration (STA and power share it), one per re-time.
        assert lerp_calls == {"guardband": result.iterations + 1}

    def test_frequency_batch(self, tiny_flow, fabric25, lerp_calls):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [15.0, 45.0, 75.0]
        )
        steps = max(outcome.iterations for outcome in outcomes)
        assert lerp_calls == {"guardband": steps + 1}

    def test_energy_cell(self, tiny_flow, fabric25, energy_config, lerp_calls):
        result = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=energy_config
        )
        # Each of the 1 + ROUNDS trials: one per iteration, one re-time.
        assert lerp_calls == {"guardband": result.iterations + 1 + ROUNDS}

    def test_one_iteration_energy_trial_interpolates_twice(
        self, tiny_flow, fabric25, energy_config, lerp_calls
    ):
        kernel = guardband_module._FixedPoint(
            tiny_flow, fabric25, energy_config,
            estimate_activity(tiny_flow.netlist, energy_config.base_activity),
            np.array([25.0]),
        )
        converged = thermal_aware_guardband(
            tiny_flow, fabric25, 25.0, config=energy_config
        )
        lerp_calls.clear()
        vdds = np.array([converged.vdd_v])
        t_start = converged.tile_temperatures[None]
        t_conv, _, diverged = kernel.converge(np.array([0]), t_start, vdds)
        assert not diverged.any()
        assert len(kernel.histories[0]) == 1
        kernel.retime(t_conv, vdds)
        assert lerp_calls == {"guardband": 2}


cells = st.integers(min_value=1, max_value=3)


class TestSharedWeightsEqualOwnWeights:
    """Each kernel fed ``lerp=grid_lerp(t)`` returns what it returns when
    it interpolates on its own, at any batch width and at temperatures
    the grid clips."""

    @pytest.fixture(scope="class")
    def model(self, tiny_flow, fabric25):
        return PowerModel(
            tiny_flow, fabric25, estimate_activity(tiny_flow.netlist, 0.2)
        )

    @staticmethod
    def draw(data, n_tiles: int):
        n_cells = data.draw(cells)
        temps = data.draw(st.lists(
            st.floats(min_value=-10.0, max_value=110.0),
            min_size=n_cells * n_tiles, max_size=n_cells * n_tiles,
        ))
        vdds = data.draw(st.lists(
            st.floats(min_value=VDD_MIN_V, max_value=VDD_NOMINAL),
            min_size=n_cells, max_size=n_cells,
        ))
        return np.array(temps).reshape(n_cells, n_tiles), np.array(vdds)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_critical_path_batch(self, tiny_flow, fabric25, data):
        t, vdds = self.draw(data, tiny_flow.n_tiles)
        timing = tiny_flow.timing
        scale = resource_delay_scale(VoltageScaling().delay_scale_cells(vdds, t))
        for delay_scale in (None, scale):
            assert timing.critical_path_batch(
                fabric25, t, delay_scale, lerp=grid_lerp(t)
            ) == timing.critical_path_batch(fabric25, t, delay_scale)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_evaluate_batch(self, tiny_flow, model, data):
        t, _ = self.draw(data, tiny_flow.n_tiles)
        f = np.full(t.shape[0], 2.1e8)
        shared = model.evaluate_batch(f, t, lerp=grid_lerp(t))
        own = model.evaluate_batch(f, t)
        assert (shared.dynamic_w == own.dynamic_w).all()
        assert (shared.leakage_w == own.leakage_w).all()

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_evaluate_at_voltage_batch(self, tiny_flow, model, data):
        t, vdds = self.draw(data, tiny_flow.n_tiles)
        f = np.full(t.shape[0], 2.1e8)
        scaling = VoltageScaling()
        shared = model.evaluate_at_voltage_batch(
            f, t, scaling, vdds, lerp=grid_lerp(t)
        )
        own = model.evaluate_at_voltage_batch(f, t, scaling, vdds)
        assert (shared.dynamic_w == own.dynamic_w).all()
        assert (shared.leakage_w == own.leakage_w).all()

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_delay_scale_cells(self, tiny_flow, data):
        t, vdds = self.draw(data, tiny_flow.n_tiles)
        scaling = VoltageScaling()
        assert (
            scaling.delay_scale_cells(vdds, t, lerp=grid_lerp(t))
            == scaling.delay_scale_cells(vdds, t)
        ).all()
