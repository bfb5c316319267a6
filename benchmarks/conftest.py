"""Shared fixtures for the benchmark harness.

Every bench regenerates one table or figure of the paper's evaluation
section and prints the measured rows/series next to the published
reference values (shape comparison — see EXPERIMENTS.md).  The
``benchmark`` fixture times the experiment's computational kernel.

Place-and-route results are cached on disk (``~/.cache/repro-flows``), so
the first run of the Fig. 6-8 benches pays the full 19-benchmark P&R cost
and later runs are fast.
"""

from __future__ import annotations

import pytest

from repro.arch.params import ArchParams
from repro.cad.flow import run_flow
from repro.coffe.fabric import Fabric, build_fabric
from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark


@pytest.fixture(scope="session")
def arch() -> ArchParams:
    return ArchParams()


@pytest.fixture(scope="session")
def fabric25(arch) -> Fabric:
    return build_fabric(25.0, arch)


@pytest.fixture(scope="session")
def fabric70(arch) -> Fabric:
    return build_fabric(70.0, arch)


@pytest.fixture(scope="session")
def suite_flows(arch):
    """Placed-and-routed flows for the full VTR-19 suite (cached on disk)."""
    flows = {}
    for spec in VTR_BENCHMARKS:
        flows[spec.name] = run_flow(vtr_benchmark(spec.name), arch)
    return flows


_GAINS_CACHE = {}


def suite_gains(flows, fabric, t_ambient, baseline_fabric=None):
    """Per-benchmark guardbanding gain over the worst-case baseline.

    Memoized per (fabric corner, ambient, baseline corner): Figs. 6-8 and
    the ablations revisit the same operating points.
    """
    baseline_fabric = baseline_fabric or fabric
    key = (fabric.corner_celsius, t_ambient, baseline_fabric.corner_celsius)
    if key in _GAINS_CACHE:
        return _GAINS_CACHE[key]
    gains = {}
    for spec in VTR_BENCHMARKS:
        flow = flows[spec.name]
        result = thermal_aware_guardband(
            flow, fabric, t_ambient,
            config=GuardbandConfig(base_activity=spec.base_activity),
        )
        f_wc = worst_case_frequency(flow, baseline_fabric)
        gains[spec.name] = guardband_gain(result.frequency_hz, f_wc)
    _GAINS_CACHE[key] = gains
    return gains
