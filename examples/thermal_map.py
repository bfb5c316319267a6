#!/usr/bin/env python
"""Visualize the thermal profile Algorithm 1 converges to.

Maps a benchmark, runs the guardbanding fixed point, and prints ASCII
heatmaps of the per-tile power and converged (steady-state) temperature.

Run:  python examples/thermal_map.py [benchmark]
"""

import sys

from repro.api import ArchParams, build_fabric, run_flow, thermal_aware_guardband, vtr_benchmark
from repro.activity.ace import estimate_activity
from repro.power.model import PowerModel
from repro.reporting.heatmap import format_heatmap


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "stereovision1"
    arch = ArchParams()
    fabric = build_fabric(25.0, arch)
    flow = run_flow(vtr_benchmark(name), arch)

    result = thermal_aware_guardband(flow, fabric, t_ambient=25.0)
    model = PowerModel(flow, fabric, estimate_activity(flow.netlist))
    power = model.evaluate(result.frequency_hz, result.tile_temperatures)

    print(
        format_heatmap(
            flow.layout, power.total_w * 1e3,
            title=f"\n'{name}' per-tile power (mW) at the guardbanded clock",
            legend_unit="mW",
        )
    )
    print(
        format_heatmap(
            flow.layout, result.tile_temperatures,
            title="\nconverged temperature profile (C)",
        )
    )
    print(
        f"\nmean rise {result.mean_rise_celsius:.2f} C, max gradient "
        f"{result.max_gradient_celsius:.2f} C, {result.iterations} iterations"
    )


if __name__ == "__main__":
    main()
