"""Energy mode — thermal margin converted into supply-voltage savings.

The energy objective's claim is the dual of guardbanding's: instead of
spending the thermal margin on a faster clock, hold the clock at the
conventional worst-case frequency and bisect the supply down until
timing *just* closes at the converged thermal profile.  This bench runs
both objectives on each benchmark/ambient cell and gates on the claim:
at iso-frequency, at least one cell must close strictly below nominal
VDD with a nonzero energy-per-cycle saving.

Environment knobs:

- ``ENERGY_SMOKE=1`` — reduced CI grid (one benchmark, two ambients);
- ``ENERGY_TRACE=path.jsonl`` — record the repro.observe trace (the
  fixed-point iterations of every bisection trial, infeasibility
  counters) to a file.
"""

import contextlib
import os

from repro import observe
from repro.cad.flow import run_flow
from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.core.margins import worst_case_frequency
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark
from repro.reporting.tables import format_table
from repro.technology.ptm22 import VDD_NOMINAL

SMOKE = os.environ.get("ENERGY_SMOKE") == "1"

SUBSET = ("sha",) if SMOKE else ("sha", "blob_merge", "or1200")
AMBIENTS = (25.0, 70.0) if SMOKE else (15.0, 25.0, 45.0, 70.0)

_SPECS = {spec.name: spec for spec in VTR_BENCHMARKS}


def _trace_session():
    path = os.environ.get("ENERGY_TRACE")
    if path:
        return observe.enabled(jsonl_path=path)
    return contextlib.nullcontext()


def test_energy_mode_savings(benchmark, arch, fabric25):
    def convert_margin():
        cells = []
        for name in SUBSET:
            flow = run_flow(vtr_benchmark(name), arch)
            # The iso-frequency target is the cell's own conventional
            # baseline: the clock a worst-case-margined design would
            # ship at.  It always closes at nominal supply, so every
            # cell is feasible and the whole margin is voltage headroom.
            f_wc = worst_case_frequency(flow, fabric25)
            config = GuardbandConfig(
                base_activity=_SPECS[name].base_activity,
                mode="energy",
                target_frequency_hz=f_wc,
            )
            for t_ambient in AMBIENTS:
                result = thermal_aware_guardband(
                    flow, fabric25, t_ambient, config=config
                )
                cells.append(
                    {
                        "benchmark": name,
                        "t_ambient": t_ambient,
                        "f_target_hz": f_wc,
                        "vdd_v": result.vdd_v,
                        "saving": result.energy.power_saving_fraction,
                        "e_cycle_j": result.energy.energy_per_cycle_j,
                        "e_nominal_j": (
                            result.energy.nominal_energy_per_cycle_j
                        ),
                    }
                )
        return cells

    with _trace_session():
        cells = benchmark(convert_margin)

    print()
    print(
        format_table(
            ["benchmark", "ambient (C)", "f target (MHz)", "VDD (V)",
             "E/cycle (pJ)", "nominal (pJ)", "saving"],
            [
                (
                    row["benchmark"],
                    f"{row['t_ambient']:g}",
                    f"{row['f_target_hz'] / 1e6:.1f}",
                    f"{row['vdd_v']:.3f}",
                    f"{row['e_cycle_j'] * 1e12:.2f}",
                    f"{row['e_nominal_j'] * 1e12:.2f}",
                    f"{row['saving'] * 100:.1f}%",
                )
                for row in cells
            ],
            title="Energy mode — iso-frequency supply scaling",
        )
    )

    # The headline gate: at least one benchmark/ambient cell converts
    # its thermal margin into a strictly sub-nominal closing supply with
    # a nonzero energy-per-cycle saving at iso-frequency.
    wins = [
        row for row in cells
        if row["vdd_v"] < VDD_NOMINAL and row["saving"] > 0.0
    ]
    assert wins, (
        "energy mode should close below nominal supply with nonzero "
        f"savings on at least one cell: {cells}"
    )
    # And every cell's accounting must be internally consistent: a
    # sub-nominal supply implies a saving, never a cost.
    for row in cells:
        assert row["vdd_v"] <= VDD_NOMINAL, row
        if row["vdd_v"] < VDD_NOMINAL:
            assert row["e_cycle_j"] < row["e_nominal_j"], row
