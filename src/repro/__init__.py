"""Reproduction of "Thermal-Aware Design and Flow for FPGA Performance
Improvement" (Khaleghi & Rosing, DATE 2019).

The package is organised as a stack:

- :mod:`repro.technology` / :mod:`repro.spice` — device models and a small
  MNA circuit simulator (HSPICE stand-in).
- :mod:`repro.coffe` — transistor sizing and resource characterization
  (COFFE stand-in): delay(T), leakage(T) and area of every FPGA resource.
- :mod:`repro.arch` / :mod:`repro.netlists` / :mod:`repro.cad` — island-style
  FPGA architecture, benchmark netlists, and a pack/place/route/STA CAD flow
  (VTR stand-in).
- :mod:`repro.activity` / :mod:`repro.power` / :mod:`repro.thermal` — signal
  activity estimation (ACE stand-in), the per-tile power model and a
  steady-state grid thermal solver (HotSpot stand-in).
- :mod:`repro.core` — the paper's contribution: thermal-aware guardbanding
  (Algorithm 1), thermal-aware design and thermal-aware architecture
  selection.
- :mod:`repro.runner` — the parallel experiment engine that fans the
  paper's evaluation grids (benchmarks x ambients x corners) across
  worker processes with retry, per-job records and JSONL streaming.
- :mod:`repro.store` — persistent content-addressed result store:
  converged guardband results keyed by flow/config/operating point, the
  substrate for sweep checkpoint/resume and cross-run reuse.
- :mod:`repro.observe` — unified tracing/metrics/events for the whole
  stack: hierarchical spans, counters/gauges/histograms and JSONL trace
  sinks, zero-cost when disabled.

**Import from** :mod:`repro.api` — the one blessed, flat entry surface::

    from repro.api import (
        ArchParams, GuardbandConfig, build_fabric, vtr_benchmark,
        run_flow, thermal_aware_guardband, worst_case_frequency,
    )

    arch = ArchParams()
    fabric = build_fabric(corner_celsius=25.0)
    routed = run_flow(vtr_benchmark("sha"), arch)
    result = thermal_aware_guardband(
        routed, fabric, t_ambient=25.0,
        config=GuardbandConfig(delta_t=2.0, base_activity=0.19),
    )
    print(result.frequency_hz, result.iterations)

Whole-evaluation sweeps go through the engine (also on the facade)::

    from repro.api import ExperimentSpec, run_sweep

    sweep = run_sweep(
        ExperimentSpec(benchmarks=("sha", "bgm"), ambients=(25.0, 70.0)),
        workers=4, store="run/store", jsonl_path="run/sweep.jsonl",
    )
    print(sweep.mean_gain(t_ambient=25.0))

The top-level package itself exports only :mod:`repro.observe`.
"""

from repro import observe

__version__ = "1.3.0"

__all__ = ["observe"]
