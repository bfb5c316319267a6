"""Per-layer self-time ledger built from wrappers around layer entry points.

The traced run monkeypatches the public entry points of each layer (in
the namespace the caller looks the name up in) with timing wrappers.  A
wrapper's *self time* is its duration minus the time of the wrapped calls
nested inside it on the same thread.  Nothing is added to ``src/``.

Pool workers of the in-process sweep service are forked from this
process, so they inherit the wrappers.  A worker cannot hand its ledger
back directly; instead, after every work unit it emits one
``perfbench.ledger`` event into the observe trace the service already
writes (``SweepClient(trace_path=...)``), and :meth:`Ledger.merge_trace`
folds those events back in as worker-side lines.

While :attr:`Ledger.active` is false the wrappers call straight through,
so one process can measure an untraced and a traced phase back to back.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

TRACE_EVENT = "perfbench.ledger"

PostHook = Callable[["Ledger", object], None]


class Ledger:
    """Per-layer self time, call counts and named counters of one process."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        """What wrappers time with; the harness passes the ops' clock."""
        self.pid = self.parent_pid = os.getpid()
        self.main_thread = threading.get_ident()
        self.active = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        self._trace_offset = 0
        self.start_section()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.main_self_s = 0.0
        """Self time recorded on the main thread: the part of the main
        thread's wall time some wrapped layer covers."""

    def start_section(self) -> None:
        """Forget everything recorded so far, worker lines included."""
        self.reset()
        self.worker_self_s: Dict[str, float] = defaultdict(float)
        self.worker_calls: Dict[str, int] = defaultdict(int)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def layer_self_s(self, layer: str) -> float:
        """Self time of ``layer`` in this process and its workers so far."""
        return self.self_s.get(layer, 0.0) + self.worker_self_s.get(layer, 0.0)

    def layer_calls(self, layer: str) -> int:
        return self.calls.get(layer, 0) + self.worker_calls.get(layer, 0)

    def totals(self) -> Dict[str, object]:
        """Self time and calls per layer (this process plus its workers),
        counters, and the main thread's covered time."""
        with self._lock:
            layers = set(self.self_s) | set(self.worker_self_s)
            return {
                "self_s": {layer: self.layer_self_s(layer) for layer in layers},
                "calls": {layer: self.layer_calls(layer) for layer in layers},
                "counts": dict(self.counts),
                "main_self_s": self.main_self_s,
            }

    # -- recording ---------------------------------------------------------

    def _stack(self) -> List[float]:
        if os.getpid() != self.pid:
            # A forked pool worker: start empty, never from the parent's
            # totals copied at fork time.
            self.pid = os.getpid()
            self._local = threading.local()
            self._lock = threading.Lock()
            self.reset()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, layer: str, call: Callable[[], object],
               count_call: bool = True) -> object:
        stack = self._stack()
        stack.append(0.0)
        start = self.clock()
        try:
            return call()
        finally:
            elapsed = self.clock() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - children
                if count_call:
                    self.calls[layer] += 1
                if (threading.get_ident() == self.main_thread
                        and self.pid == self.parent_pid):
                    self.main_self_s += elapsed - children

    def _flush_worker(self) -> None:
        """In a forked worker, ship the unit's ledger through the trace."""
        if os.getpid() == self.parent_pid:
            return
        from repro import observe

        observe.event(TRACE_EVENT, **self.snapshot())
        self.reset()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, name: str, wrapper: object) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def wrap(self, owner: object, name: str, layer: str,
             post: Optional[PostHook] = None, flush: bool = False) -> None:
        """Replace ``owner.name`` with a timing wrapper for ``layer``.

        ``post`` sees each call's result (to count cells and iterations);
        ``flush`` marks a pool worker's per-unit entry point.
        """
        original = getattr(owner, name)
        ledger = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            try:
                result = ledger._timed(
                    layer, lambda: original(*args, **kwargs)
                )
                if post is not None:
                    post(ledger, result)
                return result
            finally:
                if flush:
                    ledger._flush_worker()

        self._patch(owner, name, wrapper)

    def wrap_generator(self, owner: object, name: str, layer: str) -> None:
        """Like :meth:`wrap` for a generator: times every resumption."""
        original = getattr(owner, name)
        ledger = self

        def timed_iteration(iterator):
            while True:
                try:
                    item = ledger._timed(
                        layer, lambda: next(iterator), count_call=False
                    )
                except StopIteration:
                    return
                yield item

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not ledger.active:
                return original(*args, **kwargs)
            iterator = ledger._timed(
                layer, lambda: original(*args, **kwargs)
            )
            return timed_iteration(iterator)

        self._patch(owner, name, wrapper)

    def install(self, skip: Tuple[str, ...] = ()) -> None:
        """Wrap every layer entry point; ``skip`` leaves layers unwrapped."""
        self.parent_pid = os.getpid()
        self.main_thread = threading.get_ident()
        for owner, name, layer, kind, post in entry_points():
            if layer in skip:
                continue
            if kind == "generator":
                self.wrap_generator(owner, name, layer)
            else:
                self.wrap(owner, name, layer, post, flush=kind == "worker")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def merge_trace(self, path: str) -> None:
        """Fold worker ledger events appended to a service trace since the
        previous call."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as handle:
            handle.seek(self._trace_offset)
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # a line still being written: read it next time
                self._trace_offset += len(raw)
                try:
                    record = json.loads(raw)
                except json.JSONDecodeError:
                    continue
                if record.get("name") != TRACE_EVENT:
                    continue
                attrs = record.get("attrs", {})
                with self._lock:
                    for layer, value in attrs.get("self_s", {}).items():
                        self.worker_self_s[layer] += value
                    for layer, value in attrs.get("calls", {}).items():
                        self.worker_calls[layer] += value
                    for key, value in attrs.get("counts", {}).items():
                        self.counts[key] += value


# -- what gets wrapped ---------------------------------------------------------


def _count_guardband(ledger: Ledger, result: object) -> None:
    """Cells and fixed-point iterations of one Algorithm-1 call."""
    outcomes = result if isinstance(result, list) else [result]
    for outcome in outcomes:
        mode = getattr(outcome, "mode", None)
        if mode is None:  # a diverged batch cell (GuardbandError)
            continue
        ledger.count(f"cells.{mode}")
        ledger.count(f"iterations.{mode}", outcome.iterations)


LAYERS = (
    "coffe", "cad.pack", "cad.place", "arch.rrgraph", "cad.route",
    "cad.timing_build", "activity", "cad.timing.sta", "power.build",
    "power.evaluate", "power.voltage", "thermal.factor", "thermal.solve",
    "core.guardband", "runner", "store.load", "store.put",
    "service.submit", "service.stream", "service.result",
)
"""Every layer name a wrapper records under."""


def entry_points():
    """(owner, attribute, layer, kind, post-hook) for every wrapped call.

    Each owner is the namespace the *caller* resolves the name in, so the
    wrapper sits exactly on the call edge into the layer.
    """
    import repro.cad.flow as flow
    import repro.coffe.fabric as fabric
    import repro.core.guardband as guardband
    import repro.runner as runner
    import repro.runner.engine as engine
    from repro.cad.timing import TimingAnalyzer
    from repro.power.model import PowerModel
    from repro.power.voltage import VoltageScaling
    from repro.service.client import SweepClient
    from repro.store import ResultStore
    from repro.thermal.hotspot import ThermalSolver

    points = [
        (fabric, "characterize_fabric", "coffe"),
        (flow, "pack_netlist", "cad.pack"),
        (flow, "criticality_weights", "cad.place"),
        (flow, "place", "cad.place"),
        (flow, "build_rr_graph", "arch.rrgraph"),
        (flow, "route", "cad.route"),
        (flow, "TimingAnalyzer", "cad.timing_build"),
        (guardband, "estimate_activity", "activity"),
        (TimingAnalyzer, "critical_path", "cad.timing.sta"),
        (TimingAnalyzer, "critical_path_batch", "cad.timing.sta"),
        (PowerModel, "__init__", "power.build"),
        (PowerModel, "evaluate", "power.evaluate"),
        (PowerModel, "evaluate_batch", "power.evaluate"),
        (PowerModel, "evaluate_at_voltage", "power.evaluate"),
        (PowerModel, "evaluate_at_voltage_batch", "power.evaluate"),
        (VoltageScaling, "delay_scale_tiles", "power.voltage"),
        (VoltageScaling, "delay_scale_cells", "power.voltage"),  # batched
        (ThermalSolver, "__init__", "thermal.factor"),
        (ThermalSolver, "solve", "thermal.solve"),
        (ResultStore, "load", "store.load"),
        (ResultStore, "get", "store.load"),
        (ResultStore, "put", "store.put"),
        (SweepClient, "submit", "service.submit"),
        (SweepClient, "result", "service.result"),
        (runner, "run_sweep", "runner"),
    ]
    out = [(owner, name, layer, "plain", None) for owner, name, layer in points]
    out.append((SweepClient, "stream", "service.stream", "generator", None))
    out.append((engine, "_execute_unit", "runner", "worker", None))
    # Algorithm 1 where the engine calls it and where the library binds it
    # (the flow workload's quality probes call the library directly).
    for owner in (guardband, engine):
        for name in ("thermal_aware_guardband", "thermal_aware_guardband_batch"):
            out.append((owner, name, "core.guardband", "plain",
                        _count_guardband))
    return out
