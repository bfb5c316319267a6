"""Golden fabrics: sizing and characterization must reproduce them bit for
bit.

``tests/data/golden_fabric.json`` holds, for the design corners
:data:`CORNERS` and every resource of ``RESOURCE_NAMES``, the chosen
sizes, ``area_um2``, ``pdyn_w_base`` and every ``delay_s`` and
``leakage_w`` sample of the calibrated fabric, each float as
``float.hex``.  It was recorded at commit ``42c4c84``, before the COFFE
layer learned to compute its 25 C sizing and its Monte-Carlo sample once
per process.  The per-corner cases build cold (the ``cold_coffe`` fixture
of ``conftest.py`` empties every COFFE memo first), so they pin the
sizing flow, never a stored fabric; one more case checks the warm path.

Record (only when a change is *meant* to move modelled results) from the
repo root; ``PYTHONPATH`` picks the source tree the goldens come from.
The committed file was recorded with::

    mkdir -p /tmp/parent && git archive 42c4c84 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_fabric_golden.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict

import pytest

from repro.arch.params import ArchParams
from repro.coffe.characterize import RESOURCE_NAMES, characterize_fabric
from repro.coffe.fabric import Fabric, build_fabric

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_fabric.json"

CORNERS = (0.0, 25.0, 70.0, 100.0)
"""Design corners pinned: both ends of the range and the paper's two."""


def _row(fab: Fabric) -> Dict[str, object]:
    out: Dict[str, object] = {}
    for name in RESOURCE_NAMES:
        char = fab.resources[name]
        out[name] = {
            "sizes": {k: float(v).hex() for k, v in sorted(char.sizes.items())},
            "area_um2": float(char.area_um2).hex(),
            "pdyn_w_base": float(char.pdyn_w_base).hex(),
            "delay_s": [float(v).hex() for v in char.delay_s],
            "leakage_w": [float(v).hex() for v in char.leakage_w],
        }
    return out


def _snapshot() -> Dict[str, object]:
    arch = ArchParams()
    return {
        repr(corner): _row(
            Fabric(corner, arch, characterize_fabric(arch, corner))
        )
        for corner in CORNERS
    }


def _dump(data: Dict[str, object]) -> str:
    """One line per resource, so a diff names the resource that moved."""
    lines = ["{"]
    for i, (corner, resources) in enumerate(data.items()):
        lines.append(f" {json.dumps(corner)}: {{")
        for j, (name, row) in enumerate(resources.items()):
            comma = "," if j < len(resources) - 1 else ""
            lines.append(f"  {json.dumps(name)}: {json.dumps(row)}{comma}")
        lines.append(" }" + ("," if i < len(data) - 1 else ""))
    lines.append("}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def golden() -> Dict[str, object]:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("corner", CORNERS)
def test_cold_fabric_matches_golden(golden, corner, cold_coffe):
    fab = build_fabric(corner, ArchParams())
    assert _row(fab) == golden[repr(corner)]


def test_warm_fabric_matches_golden(golden):
    """A fabric built after others (memos warm) is the same fabric."""
    arch = ArchParams()
    for corner in CORNERS:
        assert _row(build_fabric(corner, arch)) == golden[repr(corner)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_fabric_golden.py --record")
    GOLDEN_PATH.write_text(_dump(_snapshot()))
    print(f"wrote {GOLDEN_PATH}")
