"""Benchmark inputs and the references every operation is checked against.

The workload seed only orders designs and draws ambients from fixed
grids, so one reference file covers every input any seed can produce:

- ``flow``: per routed design (and variant), the routed wirelength and
  the worst-case clock at the D25 fabric;
- ``cells``: per design, grid and ambient, the looped Algorithm-1 result
  — frequency, its ``delta_t`` compensation margin and iteration count
  for frequency mode, the closing VDD for energy mode;
- ``targets_hz``: each design's energy-mode clock, 0.9x its worst-case
  clock at D25 (recorded once, then read as an input).

Regenerate after a change that is *meant* to move modelled results::

    python3 perfbench/references.py        # rewrites references.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DEFAULT_PATH = HERE / "references.json"

FLOW_OPS: Tuple[Tuple[str, bool, float], ...] = (
    ("sha", False, 0.0),
    ("mkPktMerge", False, 0.0),
    ("raygentop", False, 0.0),
    ("diffeq1", False, 0.0),
    ("sha", True, 0.0),
    ("mkPktMerge", False, 0.7),
)
"""(design, timing_driven, thermal_weight) of every flow-workload op:
soft logic, BRAM-heavy, mixed and DSP-heavy designs plus one
timing-driven and one thermal-aware placement."""

CELL_DESIGNS: Tuple[str, ...] = ("sha", "mkSMAdapter4B", "diffeq1")
"""Soft-logic, BRAM and DSP-heavy designs of the cells and service
workloads (P&R of all three takes about 7 s)."""

GRIDS: Dict[str, Tuple[float, float, float, int]] = {
    # name: (fabric corner, first ambient, step, number of ambients)
    "f25": (25.0, 15.0, 0.05, 601),
    "f70": (70.0, 60.0, 0.1, 201),
    "energy": (25.0, 15.0, 0.05, 601),
}
"""Ambient grids: frequency mode at 15-45 C on the D25 fabric and at
60-80 C on the D70 fabric, energy mode at 15-45 C on D25.  The service
workload needs a few hundred ambients per design that no earlier op of
the run has used."""

TARGET_FRACTION = 0.9
"""Energy-mode clock as a fraction of the design's worst-case clock."""


def flow_key(design: str, timing_driven: bool, thermal_weight: float) -> str:
    key = design
    if timing_driven:
        key += "+td"
    if thermal_weight:
        key += f"+w{thermal_weight:g}"
    return key


def grid_ambients(grid: str) -> List[float]:
    _, first, step, count = GRIDS[grid]
    return [round(first + i * step, 2) for i in range(count)]


def grid_index(grid: str, ambient: float) -> Optional[int]:
    _, first, step, count = GRIDS[grid]
    index = round((ambient - first) / step)
    if 0 <= index < count and round(first + index * step, 2) == ambient:
        return index
    return None


class References:
    """Recorded results plus the per-op checks against them.

    Every check returns ``None`` when the op matches, else a one-line
    reason.
    """

    def __init__(self, data: Dict[str, object]) -> None:
        self.data = data

    @classmethod
    def load(cls, path: Optional[Path] = None) -> "References":
        with open(path or DEFAULT_PATH) as handle:
            return cls(json.load(handle))

    def target_hz(self, design: str) -> float:
        return float(self.data["targets_hz"][design])  # type: ignore[index]

    def check_flow(self, key: str, wirelength: int,
                   fmax_hz: float) -> Optional[str]:
        ref = self.data["flow"].get(key)  # type: ignore[union-attr]
        if ref is None:
            return f"flow {key}: no reference"
        if wirelength != ref["wirelength"]:
            return (f"flow {key}: wirelength {wirelength} != "
                    f"{ref['wirelength']}")
        if not math.isclose(fmax_hz, ref["fmax_hz"], rel_tol=1e-9):
            return f"flow {key}: fmax {fmax_hz} != {ref['fmax_hz']}"
        return None

    def _cell(self, design: str, grid: str,
              ambient: float) -> Optional[Dict[str, object]]:
        """The reference row of one cell, as {field: value}."""
        columns = (self.data["cells"]  # type: ignore[union-attr]
                   .get(design, {}).get(grid))
        index = grid_index(grid, ambient)
        if columns is None or index is None:
            return None
        return {name: values[index] for name, values in columns.items()}

    def check_frequency(self, design: str, grid: str, ambient: float,
                        frequency_hz: float, iterations: int) -> Optional[str]:
        ref = self._cell(design, grid, ambient)
        where = f"{design} {grid} @{ambient:g}C"
        if ref is None:
            return f"{where}: no reference"
        ref_hz = ref["frequency_hz"]
        margin_hz = ref["margin_hz"]
        ref_iterations = ref["iterations"]
        if abs(frequency_hz - ref_hz) > max(margin_hz, 1e-9 * ref_hz):
            return (f"{where}: {frequency_hz} Hz outside {ref_hz} "
                    f"+/- {margin_hz}")
        if iterations != ref_iterations:
            return f"{where}: {iterations} iterations != {ref_iterations}"
        return None

    def check_energy(self, design: str, ambient: float,
                     vdd_v: float) -> Optional[str]:
        from repro.power.voltage import VDD_TOLERANCE_V

        ref = self._cell(design, "energy", ambient)
        where = f"{design} energy @{ambient:g}C"
        if ref is None:
            return f"{where}: no reference"
        if abs(vdd_v - ref["vdd_v"]) > VDD_TOLERANCE_V:  # type: ignore[operator]
            return (f"{where}: VDD {vdd_v} != {ref['vdd_v']} "
                    f"+/- {VDD_TOLERANCE_V}")
        return None


def record() -> Dict[str, object]:
    """Run every reference op once, cold, with the library directly."""
    from repro.api import (
        ArchParams,
        GuardbandConfig,
        VTR_BENCHMARKS,
        build_fabric,
        run_flow,
        thermal_aware_guardband,
        vtr_benchmark,
        worst_case_frequency,
    )

    arch = ArchParams()
    fabrics = {corner: build_fabric(corner, arch)
               for corner in {spec[0] for spec in GRIDS.values()}}
    activity = {spec.name: spec.base_activity for spec in VTR_BENCHMARKS}
    flows: Dict[str, object] = {}
    targets: Dict[str, float] = {}
    for design, timing_driven, weight in FLOW_OPS:
        flow = run_flow(vtr_benchmark(design), arch, use_cache=False,
                        timing_driven=timing_driven, thermal_weight=weight)
        flows[flow_key(design, timing_driven, weight)] = {
            "wirelength": flow.routing.total_wire_nodes(),
            "fmax_hz": worst_case_frequency(flow, fabrics[25.0]),
        }
    cells: Dict[str, object] = {}
    for design in sorted(set(CELL_DESIGNS) | {op[0] for op in FLOW_OPS}):
        flow = run_flow(vtr_benchmark(design), arch, use_cache=False)
        wc = worst_case_frequency(flow, fabrics[25.0])
        targets[design] = round(TARGET_FRACTION * wc / 1e5) * 1e5
        if design not in CELL_DESIGNS:
            continue
        config = GuardbandConfig(base_activity=activity[design])
        energy = config.with_changes(
            mode="energy", target_frequency_hz=targets[design]
        )
        per_grid: Dict[str, Dict[str, List[object]]] = {}
        for grid, (corner, _, _, _) in GRIDS.items():
            columns: Dict[str, List[object]] = {}
            for ambient in grid_ambients(grid):
                result = thermal_aware_guardband(
                    flow, fabrics[corner], ambient,
                    config=energy if grid == "energy" else config,
                )
                if grid == "energy":
                    row = {"vdd_v": result.vdd_v}
                else:
                    row = {
                        "frequency_hz": result.frequency_hz,
                        "margin_hz": abs(result.history[-1].frequency_hz
                                         - result.frequency_hz),
                        "iterations": result.iterations,
                    }
                for name, value in row.items():
                    columns.setdefault(name, []).append(value)
            per_grid[grid] = columns
        cells[design] = per_grid
    return {"flow": flows, "targets_hz": targets, "cells": cells}


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    data = record()
    with open(DEFAULT_PATH, "w") as handle:
        json.dump(data, handle, separators=(",", ":"), sort_keys=True)
        handle.write("\n")
    print(f"wrote {DEFAULT_PATH}")
