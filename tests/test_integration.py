"""Integration tests: paper-shaped results end-to-end.

These exercise the full stack (characterization -> flow -> activity ->
power -> thermal -> Algorithm 1) on small designs and assert the *shapes*
of the paper's headline claims.
"""

import numpy as np
import pytest

from repro.api import (
    GuardbandConfig,
    NetlistSpec,
    generate_netlist,
    guardband_gain,
    run_flow,
    thermal_aware_guardband,
    vtr_benchmark,
    worst_case_frequency,
)


@pytest.fixture(scope="module")
def sha_flow(arch):
    return run_flow(vtr_benchmark("sha"), arch)


class TestHeadlineClaims:
    def test_guardband_gain_at_25c_in_paper_band(self, sha_flow, fabric25):
        # Paper abstract: "thermal-aware timing on FPGAs yields up to 36.5 %
        # performance improvement" (Fig. 6 average) at Tamb = 25 C.
        result = thermal_aware_guardband(
            sha_flow, fabric25, 25.0,
            config=GuardbandConfig(base_activity=0.19),
        )
        gain = guardband_gain(
            result.frequency_hz, worst_case_frequency(sha_flow, fabric25)
        )
        assert 0.25 < gain < 0.50

    def test_guardband_gain_at_70c_smaller(self, sha_flow, fabric25):
        # Paper Fig. 7: ~14 % average at Tamb = 70 C.
        result = thermal_aware_guardband(
            sha_flow, fabric25, 70.0,
            config=GuardbandConfig(base_activity=0.19),
        )
        gain = guardband_gain(
            result.frequency_hz, worst_case_frequency(sha_flow, fabric25)
        )
        assert 0.04 < gain < 0.25

    def test_thermal_aware_architecture_helps_when_hot(self, sha_flow, arch,
                                                       fabric25, fabric70):
        # Paper Fig. 8: the 70 C-optimized device, guardbanded, beats the
        # typical (25 C) device at a hot ambient.
        hot = 70.0
        f25 = thermal_aware_guardband(sha_flow, fabric25, hot).frequency_hz
        f70 = thermal_aware_guardband(sha_flow, fabric70, hot).frequency_hz
        assert f70 > f25
        assert (f70 / f25 - 1.0) < 0.15  # single-digit-percent effect

    def test_dsp_heavy_design_gains_more(self, arch, fabric25):
        # Paper Fig. 1/6: DSP paths are the most temperature-sensitive, so
        # DSP-dominated designs enjoy larger thermal guardband recovery.
        soft = generate_netlist(
            NetlistSpec("soft_only", n_luts=30, depth=6, seed=21)
        )
        dsp = generate_netlist(
            NetlistSpec("dsp_heavy", n_luts=8, n_dsps=6, depth=2, seed=22)
        )
        gains = {}
        for netlist in (soft, dsp):
            flow = run_flow(netlist, arch)
            result = thermal_aware_guardband(flow, fabric25, 25.0)
            gains[netlist.name] = guardband_gain(
                result.frequency_hz, worst_case_frequency(flow, fabric25)
            )
        assert gains["dsp_heavy"] > gains["soft_only"]

    def test_critical_path_can_move_with_temperature(self, arch, fabric25):
        # Paper Sec. III-A: "the critical path might change at different
        # temperatures" — a DSP path overtakes a longer soft path when hot.
        netlist = generate_netlist(
            NetlistSpec("cp_swap", n_luts=40, n_dsps=3, depth=9, seed=33)
        )
        flow = run_flow(netlist, arch)
        cold = flow.timing.critical_path(fabric25, np.full(flow.n_tiles, 0.0))
        hot = flow.timing.critical_path(fabric25, np.full(flow.n_tiles, 100.0))
        # Not guaranteed for every seed, but this seed was chosen so the
        # endpoints differ; the invariant that matters is re-timing finds a
        # (possibly different) worst path, never a faster one.
        assert hot.critical_path_s > cold.critical_path_s

    def test_xpe_sensitivity_consistent_with_solver(self, sha_flow, fabric25):
        # Cross-validation hook of Sec. IV-A: our solver's average rise per
        # unit design/base power ratio should be the same order as the
        # XPE-style 0.7 C coefficient.
        result = thermal_aware_guardband(sha_flow, fabric25, 25.0)
        from repro.activity.ace import estimate_activity
        from repro.power.model import PowerModel

        model = PowerModel(sha_flow, fabric25, estimate_activity(sha_flow.netlist))
        base = model.leakage_power(np.full(sha_flow.n_tiles, 25.0)).sum()
        predicted = 0.7 * result.total_power_w / base
        assert 0.1 * predicted < result.mean_rise_celsius < 10.0 * predicted


class TestFlowDeterminism:
    def test_same_inputs_same_frequency(self, arch, fabric25):
        netlist = vtr_benchmark("stereovision3")
        f1 = run_flow(netlist, arch, seed=5, use_cache=False)
        f2 = run_flow(netlist, arch, seed=5, use_cache=False)
        r1 = thermal_aware_guardband(f1, fabric25, 25.0)
        r2 = thermal_aware_guardband(f2, fabric25, 25.0)
        assert r1.frequency_hz == pytest.approx(r2.frequency_hz, rel=1e-12)
