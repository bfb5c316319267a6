"""The ``repro`` command-line interface — one shared parser module.

``python -m repro`` (see :mod:`repro.__main__`, a thin wrapper) and any
embedding tool resolve every subcommand, flag and exit-code convention
from here.

Commands:

- ``characterize [--corner C]`` — print the Table II-style fabric
  characterization for a design corner;
- ``guardband BENCH [--ambient T]`` — run Algorithm 1 on a VTR benchmark
  and compare against the worst-case margin;
- ``corners`` — print the Fig. 3-style corner-crossing summary;
- ``grades [--count K]`` — plan a temperature-grade portfolio (Sec. III-C
  extension);
- ``suite [--ambient T] [--workers N]`` — Fig. 6/7-style per-benchmark
  gains over the whole VTR-19 suite on the parallel sweep engine;
- ``sweep --benchmarks A,B --ambients T1,T2 [--corners C1,C2]`` — an
  arbitrary benchmarks x ambients x corners grid on the engine;
- ``report PATH`` — render a previously recorded sweep from its JSONL
  stream (or a ``--run-dir`` directory) without re-running anything;
- ``serve --store DIR`` — host the distributed sweep service
  (:mod:`repro.service`) over the versioned ``/v1`` HTTP wire API;
- ``submit SPEC --url URL`` — send a wire-envelope
  :class:`~repro.runner.spec.ExperimentSpec` to a running server
  (``--watch`` streams progress, ``--wait`` blocks for the result);
- ``status JOB --url URL`` — poll a submitted job (``--cells`` includes
  the per-cell records).

``suite`` and ``sweep`` checkpoint with ``--run-dir DIR`` (per-cell JSONL
stream plus a persistent result store under ``DIR``) and pick an
interrupted run back up with ``--resume DIR``, re-executing only the
cells that never finished.

CLI contract: every subcommand accepts ``--json`` (machine-readable
result on stdout) and exits non-zero on failure — errors are reported as
one diagnostic line (or a JSON error object), never a raw traceback.
Partially failed sweeps exit with code 1 and still report every
completed cell; a ``failed`` service job makes ``submit --wait`` and
``status`` exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import ContextManager, Dict, Optional, Sequence

import numpy as np

from repro.api import (
    ArchParams,
    ExperimentSpec,
    GuardbandConfig,
    JobResult,
    SweepResult,
    build_fabric,
    corner_delay_curves,
    guardband_gain,
    observe,
    run_flow,
    run_sweep,
    thermal_aware_guardband,
    vtr_benchmark,
    worst_case_frequency,
)
from repro.core.grades import plan_temperature_grades
from repro.netlists.vtr_suite import benchmark_names
from repro.reporting.sweep import (
    format_sweep_energy_table,
    format_sweep_gains_chart,
    format_sweep_table,
)
from repro.reporting.tables import format_table


def _traced(args: argparse.Namespace) -> ContextManager[object]:
    """A ``repro.observe`` session writing to ``--trace``, if one was given."""
    trace_path = getattr(args, "trace", None)
    if trace_path:
        return observe.enabled(jsonl_path=trace_path)
    return contextlib.nullcontext()


def _print_trace_hint(args: argparse.Namespace) -> None:
    trace_path = getattr(args, "trace", None)
    if trace_path:
        print(
            f"\ntrace written to {trace_path} "
            f"(read it with: python -m repro.observe report {trace_path})"
        )


def _emit(args: argparse.Namespace, payload: Dict[str, object], text: str) -> None:
    """Write the command result: JSON when ``--json``, prose otherwise."""
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=False))
    else:
        print(text)
        _print_trace_hint(args)


def _parse_floats(raw: str, flag: str) -> tuple:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as error:
        raise SystemExit(f"error: {flag} expects comma-separated numbers, "
                         f"got {raw!r} ({error})")


def _cmd_characterize(args: argparse.Namespace) -> int:
    with _traced(args):
        fabric = build_fabric(args.corner, ArchParams())
    rows = []
    records = []
    for name, char in fabric.resources.items():
        intercept, slope = char.delay_fit()
        leak_c, leak_k = char.leakage_fit()
        rows.append(
            (name, f"{char.area_um2:.1f}",
             f"{intercept * 1e12:.0f}+{slope * 1e12:.2f}T",
             f"{char.pdyn_w_base * 1e6:.2f}",
             f"{leak_c * 1e6:.2f}e^{leak_k:.3f}T")
        )
        records.append(
            {
                "resource": name,
                "area_um2": char.area_um2,
                "delay_intercept_s": intercept,
                "delay_slope_s_per_c": slope,
                "pdyn_w": char.pdyn_w_base,
                "plkg_coeff_w": leak_c,
                "plkg_exponent_per_c": leak_k,
            }
        )
    _emit(
        args,
        {"corner_celsius": args.corner, "resources": records},
        format_table(
            ["resource", "area um2", "delay ps", "Pdyn uW", "Plkg uW"],
            rows, title=f"D{args.corner:g} characterization",
        ),
    )
    return 0


def _cmd_guardband(args: argparse.Namespace) -> int:
    arch = ArchParams()
    with _traced(args):
        fabric = build_fabric(25.0, arch)
        flow = run_flow(vtr_benchmark(args.benchmark), arch)
        result = thermal_aware_guardband(
            flow, fabric, args.ambient, config=GuardbandConfig()
        )
        f_wc = worst_case_frequency(flow, fabric)
    gain = guardband_gain(result.frequency_hz, f_wc)
    _emit(
        args,
        {
            "benchmark": args.benchmark,
            "t_ambient": args.ambient,
            "frequency_hz": result.frequency_hz,
            "worst_case_hz": f_wc,
            "gain": gain,
            "iterations": result.iterations,
            "mean_tile_celsius": float(result.tile_temperatures.mean()),
            "max_tile_celsius": float(result.tile_temperatures.max()),
        },
        f"{args.benchmark}: thermal-aware {result.frequency_hz / 1e6:.1f} MHz "
        f"vs worst-case {f_wc / 1e6:.1f} MHz "
        f"(+{gain * 100:.1f}%), "
        f"{result.iterations} iterations, "
        f"die {result.tile_temperatures.mean():.1f} C mean / "
        f"{result.tile_temperatures.max():.1f} C max",
    )
    return 0


def _cmd_corners(args: argparse.Namespace) -> int:
    curves = corner_delay_curves((0.0, 25.0, 100.0), "cp", ArchParams())
    rows = []
    records = []
    for t in np.arange(0.0, 101.0, 10.0):
        winner = curves.best_corner_at(float(t))
        rows.append((f"{t:.0f} C", f"D{winner:g}"))
        records.append({"operating_celsius": float(t), "corner": winner})
    _emit(
        args,
        {"winners": records},
        format_table(["operating T", "fastest device"], rows,
                     title="Fig. 3 corner winners"),
    )
    return 0


def _cmd_grades(args: argparse.Namespace) -> int:
    plan = plan_temperature_grades(args.count)
    rows = [
        (f"[{band.t_low:.0f}, {band.t_high:.0f}] C",
         f"D{band.corner_celsius:g}",
         f"{band.expected_delay_s * 1e12:.2f} ps")
        for band in plan.bands
    ]
    _emit(
        args,
        {
            "average_delay_s": plan.average_delay_s,
            "bands": [
                {
                    "t_low": band.t_low,
                    "t_high": band.t_high,
                    "corner_celsius": band.corner_celsius,
                    "expected_delay_s": band.expected_delay_s,
                }
                for band in plan.bands
            ],
        },
        format_table(
            ["band", "grade corner", "E[d]"],
            rows,
            title=f"{len(plan.bands)}-grade portfolio "
                  f"(range-average {plan.average_delay_s * 1e12:.2f} ps)",
        ),
    )
    return 0


def _run_engine(
    args: argparse.Namespace,
    spec: ExperimentSpec,
    chart_ambient: Optional[float],
) -> int:
    """Shared suite/sweep driver: engine run + report + exit code."""
    quiet = getattr(args, "json", False)

    # --resume DIR implies --run-dir DIR; a run dir lays out the
    # checkpointable artefacts (JSONL stream + result store) together.
    run_dir = getattr(args, "resume", None) or getattr(args, "run_dir", None)
    jsonl_path = getattr(args, "jsonl", None)
    store_path = None
    resume_from = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        if jsonl_path is None:
            jsonl_path = os.path.join(run_dir, "sweep.jsonl")
        store_path = os.path.join(run_dir, "store")
    if getattr(args, "resume", None) is not None:
        if jsonl_path is not None and os.path.exists(jsonl_path):
            resume_from = jsonl_path
        else:
            print(
                f"warning: nothing to resume at {jsonl_path!r}; "
                f"running the sweep from scratch",
                file=sys.stderr,
            )

    def progress(outcome, done, total):
        if quiet:
            return
        if isinstance(outcome, JobResult):
            if outcome.mode == "energy" and outcome.vdd_v is not None:
                saving = (
                    f" -{outcome.energy_saving * 100:.1f}% E"
                    if outcome.energy_saving is not None
                    else ""
                )
                print(
                    f"  [{done}/{total}] {outcome.job_id:28s} "
                    f"VDD {outcome.vdd_v:.3f} V{saving}",
                    flush=True,
                )
            else:
                print(
                    f"  [{done}/{total}] {outcome.job_id:28s} "
                    f"{outcome.gain * 100:5.1f}%",
                    flush=True,
                )
        else:
            print(
                f"  [{done}/{total}] {outcome.job_id:28s} "
                f"FAILED: {outcome.error_type}: {outcome.message}",
                flush=True,
            )

    with _traced(args):
        sweep = run_sweep(
            spec,
            workers=args.workers,
            jsonl_path=jsonl_path,
            job_timeout=getattr(args, "timeout", None),
            progress=progress,
            store=store_path,
            resume_from=resume_from,
            batch=getattr(args, "batch", False),
        )
    if quiet:
        print(sweep.to_json())
    else:
        print()
        print(format_sweep_table(sweep))
        if any(r.mode == "energy" for r in sweep.results):
            print()
            print(format_sweep_energy_table(sweep))
        if chart_ambient is not None and sweep.results:
            print()
            print(
                format_sweep_gains_chart(
                    sweep,
                    t_ambient=chart_ambient,
                    title=f"guardbanding gain at Tamb={chart_ambient:g}C",
                )
            )
        _print_trace_hint(args)
        if sweep.failures:
            print(
                f"\n{len(sweep.failures)} of {sweep.n_jobs} cells failed",
                file=sys.stderr,
            )
    return 0 if not sweep.failures else 1


def _objective_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """Map the shared --mode/--target-frequency flags onto ExperimentSpec
    keyword arguments.  Validation (energy requires a target, frequency
    forbids one) lives in ExperimentSpec itself so the CLI, the wire
    decoder and library callers reject invalid combinations with the
    same diagnostic."""
    return {
        "mode": args.mode or "frequency",
        "target_frequency_hz": args.target_frequency,
    }


def _cmd_suite(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        benchmarks=tuple(benchmark_names()),
        ambients=(args.ambient,),
        corners=(25.0,),
        thermal_weight=args.thermal_weight,
        **_objective_kwargs(args),  # type: ignore[arg-type]
    )
    return _run_engine(args, spec, chart_ambient=args.ambient)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.benchmarks.strip().lower() == "all":
        benches: Sequence[str] = benchmark_names()
    else:
        benches = tuple(
            part.strip() for part in args.benchmarks.split(",") if part.strip()
        )
    spec = ExperimentSpec(
        benchmarks=tuple(benches),
        ambients=_parse_floats(args.ambients, "--ambients"),
        corners=_parse_floats(args.corners, "--corners"),
        thermal_weight=args.thermal_weight,
        **_objective_kwargs(args),  # type: ignore[arg-type]
    )
    chart = spec.ambients[0] if len(spec.ambients) == 1 else None
    return _run_engine(args, spec, chart_ambient=chart)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Host the sweep service until interrupted."""
    # Deferred imports: the service stack (asyncio server + runner
    # engine) loads only when serving, keeping `--help` and the
    # single-shot commands light.
    import asyncio
    import signal

    from repro.observe.sinks import FanoutSink, JsonlSink, Sink
    from repro.service.events import ObserveBridge
    from repro.service.http import SweepServer
    from repro.service.scheduler import SweepScheduler
    from repro.store import open_store
    from typing import List

    scheduler = SweepScheduler(
        open_store(args.store),
        workers=args.workers,
        max_retries=args.max_retries,
        batch=not args.no_batch,
    )
    server = SweepServer(scheduler, host=args.host, port=args.port)
    sinks: List[Sink] = []
    if args.trace:
        sinks.append(JsonlSink(args.trace))
    sinks.append(ObserveBridge(scheduler.broker))

    async def amain() -> None:
        await server.start()
        host, port = server.address
        url = f"http://{host}:{port}"
        _emit(
            args,
            {"url": url, "store": scheduler.store_path,
             "workers": args.workers, "trace": args.trace},
            f"serving sweeps on {url} (store: {scheduler.store_path})",
        )
        sys.stdout.flush()
        try:
            await server.serve_forever()
        finally:
            await server.close()

    # A background job of a non-interactive shell starts with SIGINT
    # ignored, and Python then installs no KeyboardInterrupt handler, so
    # `kill -INT` would leave the server running.  Install it, and stop
    # the same graceful way on SIGTERM.  Forked pool workers inherit the
    # handlers; a worker's SIGTERM (the pool terminating it) stays fatal.
    serving_pid = os.getpid()

    def on_sigterm(signum: int, frame: object) -> None:
        if os.getpid() != serving_pid:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        raise KeyboardInterrupt

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, signal.default_int_handler),
        signal.SIGTERM: signal.signal(signal.SIGTERM, on_sigterm),
    }
    # The serving loop thread owns the process's observe session; every
    # record fans out to the trace file (when asked for) and to the live
    # per-job event bridge.
    try:
        with observe.enabled(sink=FanoutSink(sinks)):
            try:
                asyncio.run(amain())
            except KeyboardInterrupt:
                pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _load_spec(path: str):
    """Read a wire-envelope ExperimentSpec from a file or stdin ('-')."""
    from repro.runner.spec import ExperimentSpec
    from repro.service.wire import from_wire

    raw = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    spec = from_wire(json.loads(raw))
    if not isinstance(spec, ExperimentSpec):
        raise ValueError(
            f"submit takes an ExperimentSpec envelope, "
            f"got {type(spec).__name__}"
        )
    return spec


def _cmd_submit(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.service import SweepClient

    spec = _load_spec(args.spec)
    if args.thermal_weight is not None:
        spec = replace(spec, thermal_weight=args.thermal_weight)
    if args.mode is not None or args.target_frequency is not None:
        # An objective override replaces the pair wholesale: --mode
        # energy needs its own target, and --mode frequency must clear
        # any target the envelope carried (ExperimentSpec validation
        # rejects the leftovers otherwise).
        spec = replace(
            spec,
            mode=args.mode or spec.mode,
            target_frequency_hz=args.target_frequency,
        )
    client = SweepClient(url=args.url, timeout=args.timeout or 30.0)
    job_id = client.submit(spec)
    quiet = getattr(args, "json", False)
    if not quiet:
        print(f"submitted {job_id} to {args.url}", flush=True)
    if args.watch:
        for record in client.stream(job_id):
            if quiet:
                continue  # --json emits exactly one object: the result
            attrs = record.get("attrs", {})
            detail = attrs.get("job_id") or attrs.get("cell") or ""
            print(f"  {record.get('name')} {detail}".rstrip(), flush=True)
    if args.watch or args.wait:
        result = client.wait(job_id, timeout=args.timeout)
        _emit(
            args,
            result,
            f"{job_id}: {result['status']} "
            f"({result['n_done']}/{result['n_cells']} cells, "
            f"{result['n_failed']} failed, "
            f"{result['n_store_hits']} store hits, "
            f"{result['n_deduped']} deduped)",
        )
        return 0 if result["status"] == "done" else 1
    if quiet:
        _emit(args, {"job_id": job_id, "url": args.url}, "")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import SweepClient

    client = SweepClient(url=args.url)
    payload = (
        client.result(args.job_id) if args.cells
        else client.status(args.job_id)
    )
    _emit(
        args,
        payload,
        f"{payload['job_id']}: {payload['status']} "
        f"({payload['n_done']}/{payload['n_cells']} cells, "
        f"{payload['n_failed']} failed, "
        f"{payload['n_store_hits']} store hits, "
        f"{payload['n_deduped']} deduped)",
    )
    return 1 if payload["status"] == "failed" else 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = args.jsonl
    if os.path.isdir(path):
        path = os.path.join(path, "sweep.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no sweep records at {path!r}")
    sweep = SweepResult.from_jsonl(path)
    _emit(
        args,
        sweep.to_dict(),
        format_sweep_table(sweep, title=f"recorded sweep: {path}"),
    )
    return 0 if not sweep.failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thermal-aware FPGA design and flow (DATE'19 reproduction)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true",
        help="emit a machine-readable JSON result on stdout",
    )
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument(
        "--trace", type=str, default=None,
        help="write a repro.observe span/event trace (JSONL) to this file; "
             "summarise it with 'python -m repro.observe report PATH'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("characterize", parents=[common, traced],
                       help="Table II-style characterization")
    p.add_argument("--corner", type=float, default=25.0)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("guardband", parents=[common, traced],
                       help="Algorithm 1 on one benchmark")
    p.add_argument("benchmark", choices=benchmark_names())
    p.add_argument("--ambient", type=float, default=25.0)
    p.set_defaults(func=_cmd_guardband)

    p = sub.add_parser("corners", parents=[common],
                       help="corner-crossing summary (Fig. 3)")
    p.set_defaults(func=_cmd_corners)

    p = sub.add_parser("grades", parents=[common],
                       help="temperature-grade portfolio")
    p.add_argument("--count", type=int, default=3)
    p.set_defaults(func=_cmd_grades)

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--workers", type=int, default=1,
        help="parallel worker processes (default 1 = serial)",
    )
    engine.add_argument(
        "--jsonl", type=str, default=None,
        help="stream one JSON record per finished cell to this file",
    )
    engine.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds",
    )
    engine.add_argument(
        "--run-dir", type=str, default=None, metavar="DIR",
        help="checkpoint the run under DIR: per-cell records in "
             "DIR/sweep.jsonl and converged results in DIR/store "
             "(overridden by an explicit --jsonl)",
    )
    engine.add_argument(
        "--resume", type=str, default=None, metavar="DIR",
        help="resume an interrupted run from DIR (implies --run-dir DIR): "
             "completed cells are reloaded from DIR/sweep.jsonl and only "
             "the remainder is executed",
    )
    engine.add_argument(
        "--batch", action="store_true",
        help="solve same-flow cells (an ambient sweep over one placed "
             "benchmark) as one joint batched fixed point; per-cell "
             "records and store/resume semantics are unchanged",
    )
    engine.add_argument(
        "--thermal-weight", type=float, default=0.0, metavar="W",
        help="thermal-aware placement: blend the thermal proxy objective "
             "into the anneal at weight W relative to the wirelength cost "
             "(0 = legacy wirelength-only placement)",
    )

    # One objective flag group shared by every command that builds or
    # amends an ExperimentSpec (suite/sweep/submit), so the energy knob
    # spells and validates identically everywhere.  Defaults are None so
    # `submit` can distinguish "not given" from an explicit override;
    # suite/sweep map None to the spec defaults.
    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument(
        "--mode", type=str, choices=("frequency", "energy"), default=None,
        help="objective: 'frequency' (default) maximises the guardbanded "
             "clock at nominal supply; 'energy' scales the supply down "
             "until timing just closes at --target-frequency",
    )
    objective.add_argument(
        "--target-frequency", type=float, default=None, metavar="HZ",
        dest="target_frequency",
        help="iso-frequency clock for --mode energy, in Hz (e.g. 100e6); "
             "invalid with --mode frequency",
    )

    p = sub.add_parser("suite", parents=[common, traced, engine, objective],
                       help="Fig. 6/7-style suite gains on the sweep engine")
    p.add_argument("--ambient", type=float, default=25.0)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("sweep", parents=[common, traced, engine, objective],
                       help="benchmarks x ambients x corners grid")
    p.add_argument(
        "--benchmarks", type=str, required=True,
        help='comma-separated VTR benchmark names, or "all"',
    )
    p.add_argument("--ambients", type=str, default="25")
    p.add_argument("--corners", type=str, default="25")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", parents=[common],
                       help="render a recorded sweep (JSONL or run dir)")
    p.add_argument(
        "jsonl", type=str,
        help="path to a sweep JSONL stream, or a --run-dir directory",
    )
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "serve", parents=[common],
        help="host the sweep service over the /v1 HTTP wire API",
    )
    p.add_argument(
        "--store", type=str, required=True, metavar="DIR",
        help="result-store directory every converged cell persists to "
             "(created if missing); repeat queries are served from it",
    )
    p.add_argument("--host", type=str, default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8023,
        help="listening port (0 picks a free one, printed at startup)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker processes computing store misses (default 2)",
    )
    p.add_argument(
        "--max-retries", type=int, default=1,
        help="extra attempts per work unit on retryable errors",
    )
    p.add_argument(
        "--no-batch", action="store_true",
        help="dispatch each cell alone instead of batching same-flow "
             "cells into joint fixed points",
    )
    p.add_argument(
        "--trace", type=str, default=None,
        help="write the service's repro.observe trace (JSONL) here; "
             "summarise it with 'python -m repro.observe report PATH'",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", parents=[common, objective],
        help="submit a wire-envelope ExperimentSpec to a sweep server",
    )
    p.add_argument(
        "spec", type=str,
        help="path to a JSON wire envelope (repro.service.wire.to_wire), "
             "or '-' for stdin",
    )
    p.add_argument(
        "--url", type=str, required=True,
        help="server endpoint, e.g. http://127.0.0.1:8023",
    )
    p.add_argument(
        "--watch", action="store_true",
        help="stream the job's progress events until it finishes "
             "(implies --wait)",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="block until the job is terminal and report the result "
             "(exit 1 when the job failed)",
    )
    p.add_argument(
        "--timeout", type=float, default=None,
        help="give up waiting after this many seconds",
    )
    p.add_argument(
        "--thermal-weight", type=float, default=None, metavar="W",
        help="override the spec's thermal-aware placement weight before "
             "submitting (default: use the spec's value)",
    )
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status", parents=[common],
        help="poll a submitted job on a sweep server",
    )
    p.add_argument("job_id", type=str)
    p.add_argument(
        "--url", type=str, required=True,
        help="server endpoint, e.g. http://127.0.0.1:8023",
    )
    p.add_argument(
        "--cells", action="store_true",
        help="include the per-cell records accumulated so far",
    )
    p.set_defaults(func=_cmd_status)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not a failure of ours.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except Exception as error:  # CLI contract: diagnostics, not tracebacks
        if getattr(args, "json", False):
            print(
                json.dumps(
                    {"error": type(error).__name__, "message": str(error)}
                )
            )
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
