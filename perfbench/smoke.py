"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py            # about five minutes on 2 cores

Runs every workload briefly, untraced once and traced twice, and checks
four things:

1. every end-to-end and per-layer metric is printed with its unit;
2. the deterministic per-layer counts repeat exactly across the two
   traced runs;
3. a perturbed reference makes the correctness check fail the run;
4. removing one layer's wrapper makes the coverage gate fail the run.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (  # noqa: E402
    DETERMINISTIC,
    DETERMINISTIC_SUFFIXES,
    END_TO_END,
    PER_LAYER,
    ROOT,
    SCRATCH_ROOT,
)
from references import DEFAULT_PATH  # noqa: E402


def bench(*args: str) -> Tuple[int, Optional[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1, 3):
        print(proc.stderr[-2000:], file=sys.stderr)
    return proc.returncode, result


def brief(workload: str) -> List[str]:
    return ["--workload", workload, "--seed", "1", "--seconds", "1"]


def missing_units(result: Optional[dict], units: dict) -> List[str]:
    if result is None:
        return ["no result line"]
    metrics = result["metrics"]
    return [f"{name} [{unit}]" for name, unit in units.items()
            if metrics.get(name, {}).get("unit") != unit
            or not isinstance(metrics[name].get("value"), (int, float))]


def deterministic(result: dict) -> dict:
    return {name: entry["value"] for name, entry in result["metrics"].items()
            if name.endswith(DETERMINISTIC_SUFFIXES) or name in DETERMINISTIC}


def main() -> int:
    problems: List[str] = []
    for workload in ("flow", "cells", "service"):
        code, result = bench(*brief(workload), "--trace", "0")
        if code != 0 or not result or not result["correct"]:
            problems.append(f"{workload}: untraced run failed ({code})")
        for name in missing_units(result, END_TO_END):
            problems.append(f"{workload}: end-to-end metric {name} missing")
        traced = [bench(*brief(workload), "--trace", "1") for _ in range(2)]
        for code, result in traced:
            if code != 0:
                problems.append(f"{workload}: traced run failed ({code})")
            for name in missing_units(result, PER_LAYER):
                problems.append(f"{workload}: per-layer metric {name} missing")
        if all(code == 0 for code, _ in traced):
            first, second = (deterministic(r) for _, r in traced)
            for name in first:
                if first[name] != second[name]:
                    problems.append(f"{workload}: {name} did not repeat "
                                    f"({first[name]} vs {second[name]})")

    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="smoke-", dir=SCRATCH_ROOT))
    try:
        data = json.loads(DEFAULT_PATH.read_text())
        # 5%: well outside the delta_t compensation margin (about 1%).
        for grids in data["cells"].values():
            grids["f25"]["frequency_hz"] = [
                1.05 * value for value in grids["f25"]["frequency_hz"]]
        perturbed = scratch / "references.json"
        perturbed.write_text(json.dumps(data))
        code, result = bench(*brief("cells"), "--references", str(perturbed))
        if code != 1 or not result or result["failed"] == 0:
            problems.append("a perturbed reference did not fail the run")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    code, _ = bench(*brief("cells"), "--trace", "1", "--skip-layer", "activity")
    if code != 3:
        problems.append(f"the coverage gate did not trip (exit {code})")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
