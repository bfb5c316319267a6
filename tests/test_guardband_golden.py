"""Golden Algorithm-1 outputs: the guardband kernel must reproduce them bit
for bit.

``tests/data/golden_guardband.json`` holds results of the looped
single-cell Algorithm 1 as it stood before the looped and batched paths
were merged into one kernel (commit ``f49550b``): the ``tiny`` design of
``conftest.py`` at :data:`AMBIENTS` on the 25 C fabric, two cells on the
70 C fabric, one warm-started cell and one energy-mode cell.  Every
float is stored exactly (JSON round-trips ``repr``), so the checks are
plain equality, both through :func:`thermal_aware_guardband` and through
batches of any size.

Record (only when a change is *meant* to move modelled results) from the
repo root; ``PYTHONPATH`` picks the source tree the goldens come from.
The committed file was recorded from the looped path with::

    mkdir -p /tmp/parent && git archive f49550b | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_guardband_golden.py --record

and re-recording from the current tree is::

    PYTHONPATH=src python tests/test_guardband_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.cad.flow import run_flow
from repro.coffe.fabric import build_fabric
from repro.core.guardband import (
    BatchCell,
    GuardbandConfig,
    GuardbandResult,
    thermal_aware_guardband,
    thermal_aware_guardband_batch,
)
from repro.core.margins import worst_case_frequency
from repro.netlists.generator import NetlistSpec, generate_netlist

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_guardband.json"

AMBIENTS = (5.0, 25.0, 45.0, 65.0)
"""Frequency-mode ambients on the 25 C fabric."""
CORNER70_AMBIENTS = (25.0, 55.0)
"""Frequency-mode ambients on the 70 C fabric."""
WARM_AMBIENT = 25.0
"""The warm-started cell: seeded with the converged profile of the
45 C cell."""
ENERGY_AMBIENT = 25.0
"""The energy-mode cell, targeting the design's worst-case clock."""


def _tiny_flow_and_fabrics():
    """The ``tiny_flow``/``fabric25``/``fabric70`` fixtures of conftest."""
    arch = ArchParams()
    spec = NetlistSpec(
        "tiny", n_luts=24, n_brams=1, n_dsps=1, depth=5, seed=42,
        base_activity=0.2,
    )
    flow = run_flow(generate_netlist(spec), arch, seed=11)
    return flow, build_fabric(25.0, arch), build_fabric(70.0, arch)


def _energy_config(flow, fabric25):
    return GuardbandConfig(
        mode="energy", target_frequency_hz=worst_case_frequency(flow, fabric25)
    )


def _row(result) -> Dict[str, object]:
    return {
        "frequency_hz": result.frequency_hz,
        "critical_path_s": result.critical_path_s,
        "iterations": result.iterations,
        "vdd_v": result.vdd_v,
        "total_power_w": result.total_power_w,
        "warm_started": result.warm_started,
        "tile_temperatures": [float(t) for t in result.tile_temperatures],
    }


def record() -> Dict[str, object]:
    """Run every golden cell once through ``thermal_aware_guardband``."""
    flow, fabric25, fabric70 = _tiny_flow_and_fabrics()
    d25 = {
        repr(t): _row(thermal_aware_guardband(flow, fabric25, t))
        for t in AMBIENTS
    }
    d70 = {
        repr(t): _row(thermal_aware_guardband(flow, fabric70, t))
        for t in CORNER70_AMBIENTS
    }
    seed = np.asarray(d25[repr(45.0)]["tile_temperatures"])
    warm = _row(thermal_aware_guardband(
        flow, fabric25, WARM_AMBIENT, warm_start=seed
    ))
    energy = _row(thermal_aware_guardband(
        flow, fabric25, ENERGY_AMBIENT, config=_energy_config(flow, fabric25)
    ))
    return {"d25": d25, "d70": d70, "warm": warm, "energy": energy}


# --- the checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _assert_matches(result, want: Dict[str, object]) -> None:
    assert isinstance(result, GuardbandResult), result
    got = _row(result)
    for key, value in want.items():
        assert got[key] == value, key


def _frequency_cells(golden, fabric25, fabric70) -> List[Tuple[object, float, Dict]]:
    return (
        [(fabric25, t, golden["d25"][repr(t)]) for t in AMBIENTS]
        + [(fabric70, t, golden["d70"][repr(t)]) for t in CORNER70_AMBIENTS]
    )


class TestSingleCellGoldens:
    def test_frequency_cells(self, golden, tiny_flow, fabric25, fabric70):
        for fabric, t_ambient, want in _frequency_cells(
            golden, fabric25, fabric70
        ):
            _assert_matches(
                thermal_aware_guardband(tiny_flow, fabric, t_ambient), want
            )

    def test_warm_started_cell(self, golden, tiny_flow, fabric25):
        seed = np.asarray(golden["d25"][repr(45.0)]["tile_temperatures"])
        result = thermal_aware_guardband(
            tiny_flow, fabric25, WARM_AMBIENT, warm_start=seed
        )
        _assert_matches(result, golden["warm"])

    def test_energy_cell(self, golden, tiny_flow, fabric25):
        result = thermal_aware_guardband(
            tiny_flow, fabric25, ENERGY_AMBIENT,
            config=_energy_config(tiny_flow, fabric25),
        )
        _assert_matches(result, golden["energy"])


class TestBatchGoldens:
    def test_frequency_batch_of_n(self, golden, tiny_flow, fabric25):
        seed = np.asarray(golden["d25"][repr(45.0)]["tile_temperatures"])
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric25,
            [BatchCell(t) for t in AMBIENTS]
            + [BatchCell(WARM_AMBIENT, warm_start=seed)],
        )
        for t_ambient, outcome in zip(AMBIENTS, outcomes):
            _assert_matches(outcome, golden["d25"][repr(t_ambient)])
        _assert_matches(outcomes[-1], golden["warm"])

    def test_other_corner_batch_of_n(self, golden, tiny_flow, fabric70):
        outcomes = thermal_aware_guardband_batch(
            tiny_flow, fabric70, list(CORNER70_AMBIENTS)
        )
        for t_ambient, outcome in zip(CORNER70_AMBIENTS, outcomes):
            _assert_matches(outcome, golden["d70"][repr(t_ambient)])

    def test_batch_of_one(self, golden, tiny_flow, fabric25, fabric70):
        for fabric, t_ambient, want in _frequency_cells(
            golden, fabric25, fabric70
        ):
            (outcome,) = thermal_aware_guardband_batch(
                tiny_flow, fabric, [t_ambient]
            )
            _assert_matches(outcome, want)

    def test_energy_batch_of_n_and_of_one(self, golden, tiny_flow, fabric25):
        config = _energy_config(tiny_flow, fabric25)
        many = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [15.0, ENERGY_AMBIENT, 75.0], config=config
        )
        (one,) = thermal_aware_guardband_batch(
            tiny_flow, fabric25, [ENERGY_AMBIENT], config=config
        )
        _assert_matches(many[1], golden["energy"])
        _assert_matches(one, golden["energy"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    data = record()
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
