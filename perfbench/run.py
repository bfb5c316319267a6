"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 10 --trace 0

Builds nothing: the program is the pure-Python ``repro`` package under
``src/`` next to this directory.  ``--trace 0`` measures the end-to-end
metrics with no wrappers installed; ``--trace 1`` runs half the time
untraced and half with per-layer wrappers (``ledger.py``) and prints the
per-layer metrics instead.  Every op is checked against
``references.json``; a mismatch is a failed op and the exit code is 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".perfbench_run"

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
"""BLAS and OpenMP run single-threaded: set before numpy is imported."""

SETUP_REPEATS = 3
"""``setup_s`` is the median of this many cold set-ups: one in this
process and the rest in fresh processes run one after another."""

SUBPROCESS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "energy_latency_p50_ms": "ms",
    "repeat_latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "fmax_mhz": "MHz",
    "gain_pct": "%",
    "energy_saving_pct": "%",
}

PER_FLOW_LAYERS = {
    "cad.pack_s": "cad.pack",
    "cad.place_s": "cad.place",
    "arch.rrgraph_s": "arch.rrgraph",
    "cad.route_s": "cad.route",
    "cad.timing_build_s": "cad.timing_build",
}
"""Self seconds per routed flow (set-up and timed flows together)."""

PER_OP_LAYERS = {
    "activity.estimate_s": "activity",
    "cad.timing.sta_s": "cad.timing.sta",
    "power.build_s": "power.build",
    "power.evaluate_s": "power.evaluate",
    "power.voltage_s": "power.voltage",
    "thermal.factor_s": "thermal.factor",
    "thermal.solve_s": "thermal.solve",
    "core.guardband.self_s": "core.guardband",
    "runner.self_s": "runner",
    "store.load_s": "store.load",
    "store.put_s": "store.put",
    "service.submit_s": "service.submit",
    "service.stream_wait_s": "service.stream",
    "service.result_s": "service.result",
}
"""Self seconds per op of the traced phase."""

PER_CELL_CALLS = {
    "activity.calls_per_cell": "activity",
    "cad.timing.sta_calls_per_cell": "cad.timing.sta",
    "thermal.factorizations_per_cell": "thermal.factor",
    "thermal.solves_per_cell": "thermal.solve",
}

PER_LAYER = {
    "coffe.characterize_s": "s",
    **{name: "s" for name in PER_FLOW_LAYERS},
    "cad.route_attempts_per_flow": "count",
    **{name: "s" for name in PER_OP_LAYERS},
    **{name: "count" for name in PER_CELL_CALLS},
    "activity.share_pct": "%",
    "core.guardband.iterations_per_cell": "count",
    "core.guardband.energy_iterations_per_cell": "count",
    "store.entry_bytes": "bytes",
    "service.store_hit_ratio": "ratio",
    "service.dedup_joins_per_op": "count",
    "unattributed_s": "s",
    "trace.overhead_pct": "%",
}

DETERMINISTIC_SUFFIXES = ("_per_cell", "_per_flow", "_per_op")
DETERMINISTIC = ("service.store_hit_ratio",)
"""Per-layer counts that must repeat exactly from run to run."""


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flow", "cells", "service"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references", type=Path, default=None,
                        help="reference file (default: references.json)")
    parser.add_argument("--skip-layer", action="append", default=[],
                        help="traced run: leave this layer unwrapped")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- host and process facts ----------------------------------------------------


def host_info() -> Dict[str, object]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    pinned = (sorted(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else None)
    return {"git_sha": sha, "nproc": os.cpu_count(), "cpu": cpu,
            "pinned_cpus": pinned, "numpy": numpy.__version__,
            "blas": blas_name}


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    The host-speed probe then measures the CPU the program runs on, the
    service's pool worker included: the host's speed can differ from
    one CPU to another.  A closed loop with one client and one worker
    keeps one CPU busy at a time, so little parallelism is lost.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _children() -> List[int]:
    pids: List[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(pid) for pid in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def _vm_hwm_kb(pid: str) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return float(line.split()[1])
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its live children (the
    service's pool worker)."""
    total = _vm_hwm_kb("self")
    total += sum(_vm_hwm_kb(str(pid)) for pid in _children())
    return total / 1024.0


def wait_for_children(timeout_s: float = 30.0) -> None:
    """Block until every child process this one started has ended."""
    import time

    deadline = perf_counter() + timeout_s
    while _children() and perf_counter() < deadline:
        time.sleep(0.05)
    for pid in _children():
        os.kill(pid, 15)
        os.waitpid(pid, 0)


# -- measuring -----------------------------------------------------------------


class Phase:
    """The ops of one timed phase, with their times at reference speed."""

    def __init__(self, ops: list, speed, workload) -> None:
        self.ops = ops
        self.scaled = [speed.scaled(op.start, op.seconds,
                                    workload.elasticity,
                                    workload.probe_window_s)
                       for op in ops]

    @property
    def ops_per_s(self) -> float:
        """Flows, cells or grids per second of (scaled) op time."""
        busy = sum(seconds for op, seconds in zip(self.ops, self.scaled)
                   if op.units)
        return sum(op.units for op in self.ops) / busy

    def latencies_ms(self, kind: str) -> List[float]:
        return [1e3 * seconds for op, seconds in zip(self.ops, self.scaled)
                if op.kind == kind]


def run_phase(workload, seconds: float, speed, on_round=None) -> Phase:
    """Closed loop: rounds back to back until ``seconds`` have passed
    and at least ``workload.min_rounds`` rounds are done (or exactly
    ``workload.fixed_rounds``), sampling the host's speed throughout."""
    from workloads import Exhausted

    def more(rounds: int) -> bool:
        if workload.fixed_rounds is not None:
            return rounds < workload.fixed_rounds
        return rounds < workload.min_rounds or perf_counter() - start < seconds

    # Move the set-up's heap (flows, fabrics, references) out of the
    # collector's reach, so a full collection during an op costs that
    # op's own garbage, not a walk of everything set up before it.
    gc.collect()
    gc.freeze()
    ops: list = []
    rounds = 0
    start = perf_counter()
    with speed.sampling():
        while more(rounds):
            try:
                ops.extend(workload.round())
            except Exhausted as error:
                print(f"perfbench: phase ended early: {error}",
                      file=sys.stderr)
                break
            rounds += 1
            if on_round is not None:
                on_round(rounds)
    return Phase(ops, speed, workload)


def timed_setup(workload, speed) -> float:
    """Set-up seconds at reference speed, step by step."""
    steps = []
    with speed.sampling():
        for step in workload.setup_steps():
            start = speed.now()
            step()
            steps.append((start, speed.now() - start))
    return sum(speed.scaled(start, seconds) for start, seconds in steps)


def p90(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, setup_s: float, phase: Phase,
               quality: Dict[str, float], rss_mb: float) -> Dict[str, float]:
    primary = phase.latencies_ms(workload.primary)
    energy = (phase.latencies_ms(workload.energy) if workload.energy
              else workload.energy_latency_ms)
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": statistics.median(primary),
        "latency_p90_ms": p90(primary),
        "energy_latency_p50_ms": statistics.median(energy),
        "repeat_latency_p50_ms": statistics.median(
            phase.latencies_ms("repeat")),
        "peak_rss_mb": rss_mb,
        **quality,
    }


def per_layer(workload, setup: dict, timed: dict, counts: dict,
              traced: Phase, untraced: Phase,
              scale: float) -> Dict[str, float]:
    """Per-layer metrics; ``scale`` brings wrapper times to reference
    host speed."""
    def total(snapshot: dict, key: str, layer: str) -> float:
        value = snapshot[key].get(layer, 0)
        return value * scale if key == "self_s" else value

    ops = [op for op in traced.ops if op.attempted]
    n_ops = max(len(ops), 1)
    flows = total(setup, "calls", "cad.pack") + total(timed, "calls", "cad.pack")
    metrics: Dict[str, float] = {
        "coffe.characterize_s": total(setup, "self_s", "coffe")
        / max(total(setup, "calls", "coffe"), 1),
        "cad.route_attempts_per_flow": (
            total(setup, "calls", "cad.route") + total(timed, "calls", "cad.route")
        ) / max(flows, 1),
    }
    for name, layer in PER_FLOW_LAYERS.items():
        metrics[name] = (total(setup, "self_s", layer)
                         + total(timed, "self_s", layer)) / max(flows, 1)
    for name, layer in PER_OP_LAYERS.items():
        metrics[name] = total(timed, "self_s", layer) / n_ops
    cell_counts = counts["counts"]
    cells = cell_counts.get("cells.frequency", 0) + cell_counts.get("cells.energy", 0)
    for name, layer in PER_CELL_CALLS.items():
        metrics[name] = total(counts, "calls", layer) / max(cells, 1)
    metrics["core.guardband.iterations_per_cell"] = cell_counts.get(
        "iterations.frequency", 0) / max(cell_counts.get("cells.frequency", 0), 1)
    metrics["core.guardband.energy_iterations_per_cell"] = cell_counts.get(
        "iterations.energy", 0) / max(cell_counts.get("cells.energy", 0), 1)
    primary = [op for op in traced.ops if op.kind == workload.primary]
    metrics["activity.share_pct"] = 100.0 * sum(
        op.activity_s for op in primary) / sum(op.seconds for op in primary)
    metrics["store.entry_bytes"] = (
        workload.store_entry_bytes() if hasattr(workload, "store_entry_bytes")
        else 0.0)
    metrics["service.store_hit_ratio"] = 0.0
    metrics["service.dedup_joins_per_op"] = 0.0
    metrics.update(workload.extra_counts())
    metrics["unattributed_s"] = scale * (
        sum(op.seconds for op in ops) - timed["main_self_s"]) / n_ops
    metrics["trace.overhead_pct"] = 100.0 * (
        untraced.ops_per_s / traced.ops_per_s - 1.0)
    return metrics


def coverage_errors(workload, setup: dict, timed: dict) -> List[str]:
    return [
        f"coverage: layer {layer} recorded no calls on {workload.name}"
        for layer in workload.required_layers
        if setup["calls"].get(layer, 0) + timed["calls"].get(layer, 0) == 0
    ]


def setup_in_subprocess(args: argparse.Namespace) -> float:
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.references is not None:
        command += ["--references", str(args.references)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def report(metrics: Dict[str, float], units: Dict[str, str], attempted: int,
           failed: int) -> None:
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def run(args: argparse.Namespace, scratch: Path) -> int:
    from hostspeed import HostSpeed
    from ledger import Ledger
    from references import References
    from workloads import WORKLOADS

    refs = References.load(args.references)
    print("# host " + json.dumps(host_info()), flush=True)
    speed = HostSpeed()
    setup_samples = [setup_in_subprocess(args)
                     for _ in range(SETUP_REPEATS - 1)]
    ledger: Optional[Ledger] = None
    trace_path: Optional[str] = None
    if args.trace:
        # Wrappers time on the ops' clock, which leaves probes out.
        ledger = Ledger(clock=speed.now)
        ledger.install(skip=tuple(args.skip_layer))
        ledger.active = True
        trace_path = str(scratch / "service-trace.jsonl")
    workload = WORKLOADS[args.workload](args.seed, scratch, refs, speed,
                                       ledger, trace_path)
    try:
        setup_samples.append(timed_setup(workload, speed))
        if ledger is None:
            phase = run_phase(workload, args.seconds, speed)
            phases = [phase]
            quality = workload.quality()
            metrics = end_to_end(workload, statistics.median(setup_samples),
                                 phase, quality, peak_rss_mb())
            def raw_p50(kind: str) -> float:
                return statistics.median(
                    1e3 * op.seconds for op in phase.ops if op.kind == kind)

            print("# raw " + json.dumps({
                "host_scale": speed.median_scale(),
                "latency_p50_ms": raw_p50(workload.primary),
                "repeat_latency_p50_ms": raw_p50("repeat"),
            }))
            units = END_TO_END
        else:
            if trace_path is not None:
                ledger.merge_trace(trace_path)
            setup = ledger.totals()
            ledger.active = False
            untraced = run_phase(workload, args.seconds / 2, speed)
            if trace_path is not None:
                ledger.merge_trace(trace_path)  # drop untraced worker lines
            ledger.start_section()
            ledger.active = True
            counts: Dict[str, dict] = {}

            def on_round(rounds: int) -> None:
                if rounds == workload.count_rounds:
                    counts.update(ledger.totals())

            traced = run_phase(workload, args.seconds / 2, speed, on_round)
            timed = ledger.totals()
            ledger.active = False
            phases = [untraced, traced]
            errors = coverage_errors(workload, setup, timed)
            if errors:
                for error in errors:
                    print(f"perfbench: {error}", file=sys.stderr)
                return 3
            metrics = per_layer(workload, setup, timed, counts, traced,
                                untraced, speed.median_scale())
            units = PER_LAYER
    finally:
        workload.close()
        if ledger is not None:
            ledger.uninstall()
        wait_for_children()
    ops = [op for phase in phases for op in phase.ops if op.attempted]
    failures = [op.error for op in ops if op.error is not None]
    for error in failures[:10]:
        print(f"perfbench: failed op: {error}", file=sys.stderr)
    report(metrics, units, len(ops), len(failures))
    return 1 if failures else 0


def setup_only(args: argparse.Namespace, scratch: Path) -> int:
    from references import References
    from workloads import WORKLOADS

    from hostspeed import HostSpeed

    speed = HostSpeed()
    workload = WORKLOADS[args.workload](args.seed, scratch,
                                       References.load(args.references), speed)
    try:
        seconds = timed_setup(workload, speed)
    finally:
        workload.close()
        wait_for_children()
    print(json.dumps({"setup_s": seconds}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    pin_to_one_cpu()
    SCRATCH_ROOT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=SCRATCH_ROOT))
    # The flow cache, the result store and any temporary file stay in
    # this run's scratch directory inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(scratch / "flows")
    os.environ["TMPDIR"] = tempfile.tempdir = str(scratch)
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        if args.setup_only:
            return setup_only(args, scratch)
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
