"""The three closed-loop, single-client workloads.

Each workload sets up once (:meth:`Workload.setup`, timed as
``setup_s``), then the harness calls :meth:`Workload.round` until the
timed phase is over.  A round runs a few operations back to back and
returns one :class:`Op` per operation, already checked against the
references.  The seed fixes design order and ambients; nothing else in a
run is random.

- ``flow``: cold place-and-route, one :func:`run_flow` per op.  Only the
  CAD layers do work, so a P&R change shows here and nowhere else.
- ``cells``: one looped Algorithm-1 cell per op through
  ``run_sweep([job], workers=1)`` with no store.  Only the Algorithm-1
  layers (activity, STA, power, thermal, guardband) do work.
- ``service``: an in-process ``SweepClient`` with one pool worker and a
  result store.  Fresh grids exercise the batched kernel and store
  writes; repeat grids are served from the store.
"""

from __future__ import annotations

import functools
import gc
import math
import pickle
import random
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.cad.flow as flow_mod
import repro.coffe.fabric as fabric_mod
import repro.core.guardband as guardband
import repro.runner as runner
from repro.arch.params import ArchParams
from repro.core.guardband import GuardbandConfig
from repro.core.margins import guardband_gain, worst_case_frequency
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark
from repro.runner.spec import ExperimentSpec, SweepJob
from repro.service.client import SweepClient

from hostspeed import WINDOW_S, HostSpeed
from ledger import Ledger
from references import (
    CELL_DESIGNS,
    FLOW_OPS,
    GRIDS,
    References,
    flow_key,
    grid_ambients,
)

ARCH = ArchParams()
ACTIVITY = {spec.name: spec.base_activity for spec in VTR_BENCHMARKS}


@dataclass
class Op:
    """One timed operation and the outcome of its check."""

    kind: str
    start: float
    """:meth:`HostSpeed.now` when the op began."""
    seconds: float
    error: Optional[str] = None
    units: int = 1
    """Flows, cells or grids the op contributes to ``ops_per_s``; an op
    with none (a flow's disk replay) is left out of its time as well."""
    attempted: bool = True
    """False for a latency taken inside another op (not its own op)."""
    activity_s: float = 0.0
    """Activity-estimation self time inside the op (traced runs only)."""


class Exhausted(Exception):
    """The workload ran out of fresh inputs; the timed phase ends early."""


class Workload:
    name = ""
    primary = ""
    """Op kind behind ``latency_p50_ms`` and ``latency_p90_ms``."""
    energy = ""
    """Op kind behind ``energy_latency_p50_ms`` (empty: from quality())."""
    min_rounds = 1
    """Rounds every timed phase completes, whatever ``--seconds`` says."""
    fixed_rounds: Optional[int] = None
    """If set, every timed phase runs exactly this many rounds, whatever
    ``--seconds`` says, so every run measures the same ops."""
    count_rounds = 1
    """Rounds whose deterministic counts and quality are reported."""
    required_layers: Tuple[str, ...] = ()
    """Layers the traced run must see called (the coverage gate)."""
    elasticity = 1.0
    """How much of the host-speed probe's change the ops follow
    (:meth:`HostSpeed.scaled`)."""
    probe_window_s = WINDOW_S
    """Probes this close to an op set its scale."""

    def __init__(self, seed: int, scratch: Path, refs: References,
                 speed: HostSpeed, ledger: Optional[Ledger] = None,
                 trace_path: Optional[str] = None) -> None:
        self.rng = random.Random(seed)
        self.scratch = scratch
        self.refs = refs
        self.speed = speed
        self.ledger = ledger
        self.trace_path = trace_path
        self.rounds_done = 0
        self.gains: List[float] = []
        self.savings: List[float] = []

    def setup_steps(self) -> List[Callable[[], object]]:
        """The set-up, as steps the harness times one by one."""
        raise NotImplementedError

    def round(self) -> List[Op]:
        raise NotImplementedError

    def quality(self) -> Dict[str, float]:
        """``fmax_mhz``, ``gain_pct`` and ``energy_saving_pct``."""
        raise NotImplementedError

    def extra_counts(self) -> Dict[str, float]:
        """Workload-level counts of the count window (service only)."""
        return {}

    def close(self) -> None:
        pass

    @contextmanager
    def untraced(self) -> Iterator[None]:
        """Checks and probes run with the ledger paused."""
        ledger = self.ledger
        if ledger is None or not ledger.active:
            yield
            return
        ledger.active = False
        try:
            yield
        finally:
            ledger.active = True

    def _activity_s(self) -> float:
        if self.ledger is None or not self.ledger.active:
            return 0.0
        return self.ledger.layer_self_s("activity")

    def _in_count_window(self) -> bool:
        return self.rounds_done < self.count_rounds

    def _fmax_mhz(self, flows: List[object], fabric: object) -> float:
        logs = [math.log(worst_case_frequency(flow, fabric) / 1e6)
                for flow in flows]
        return math.exp(sum(logs) / len(logs))


_CAD = ("coffe", "cad.pack", "cad.place", "arch.rrgraph", "cad.route",
        "cad.timing_build")
_ALGORITHM1 = ("activity", "cad.timing.sta", "power.build", "power.evaluate",
               "power.voltage", "thermal.factor", "thermal.solve",
               "core.guardband", "runner")


def _stratified(ambients: List[float], rng: random.Random,
                bins: int = 10) -> List[float]:
    """A seeded order of a grid in which every ``bins`` consecutive draws
    take one ambient from each tenth of the grid, so a run's first cells
    span the whole range whatever the seed (quality metrics then barely
    depend on it)."""
    size = len(ambients)
    strata = [ambients[i * size // bins:(i + 1) * size // bins]
              for i in range(bins)]
    for stratum in strata:
        rng.shuffle(stratum)
    order: List[float] = []
    while any(strata):
        rng.shuffle(strata)
        order += [stratum.pop() for stratum in strata if stratum]
    return order


def _config(design: str, target_hz: Optional[float] = None) -> GuardbandConfig:
    config = GuardbandConfig(base_activity=ACTIVITY[design])
    if target_hz is None:
        return config
    return config.with_changes(mode="energy", target_frequency_hz=target_hz)


class FlowWorkload(Workload):
    """Cold P&R of six flows per pass; the seed orders the pass.

    A timed phase is exactly one pass.  Each op is
    ``run_flow(..., use_cache=False)``.  After it, ``REPEATS`` repeat
    ops replay that flow from a pickle on disk (open and unpickle, what
    the flow cache's disk hit costs a fresh process or sweep worker);
    they are checked and give ``repeat_latency_p50_ms`` but are not
    counted in ``ops_per_s``, which is cold flows per second.  The flows
    this workload keeps are frozen out of the collector after each
    round, so an op's time does not depend on how many came before it.
    """

    name = "flow"
    primary = "flow"
    fixed_rounds = count_rounds = len(FLOW_OPS)
    required_layers = _CAD
    REPEATS = 10
    PROBE_REPEATS = 7

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.order = list(FLOW_OPS)
        self.rng.shuffle(self.order)
        self.routed: Dict[str, object] = {}
        self.pickles: Dict[str, Path] = {}
        self.energy_latency_ms: List[float] = []

    def setup_steps(self) -> List[Callable[[], object]]:
        return [self._build_fabric]

    def _build_fabric(self) -> None:
        self.fabric = fabric_mod.build_fabric(25.0, ARCH)

    def _check(self, key: str, flow: object) -> Optional[str]:
        with self.untraced():
            return self.refs.check_flow(
                key, flow.routing.total_wire_nodes(),
                worst_case_frequency(flow, self.fabric),
            )

    def _pickle(self, key: str, flow: object) -> Path:
        path = self.pickles.get(key)
        if path is None:
            path = self.scratch / f"flow-{key}.pkl"
            with open(path, "wb") as handle:
                pickle.dump(flow, handle)
            self.pickles[key] = path
        return path

    def round(self) -> List[Op]:
        design, timing_driven, weight = self.order[
            self.rounds_done % len(self.order)]
        key = flow_key(design, timing_driven, weight)
        start = self.speed.now()
        flow = flow_mod.run_flow(
            vtr_benchmark(design), ARCH, use_cache=False,
            timing_driven=timing_driven, thermal_weight=weight,
        )
        ops = [Op("flow", start, self.speed.now() - start,
                  self._check(key, flow))]
        self.routed[key] = flow
        path = self._pickle(key, flow)
        for _ in range(self.REPEATS):
            start = self.speed.now()
            with open(path, "rb") as handle:
                again = pickle.load(handle)
            ops.append(Op("repeat", start, self.speed.now() - start,
                          self._check(key, again), units=0))
        del again
        gc.collect()
        gc.freeze()
        self.rounds_done += 1
        return ops

    def quality(self) -> Dict[str, float]:
        """Algorithm 1 on every routed design, after the timed phase:
        one frequency-mode cell at 25 C and one energy-mode cell at the
        design's target, whose latency is ``energy_latency_p50_ms``."""
        gains, savings, timed = [], [], []
        with self.untraced(), self.speed.sampling():
            for key in sorted(self.routed):
                flow = self.routed[key]
                design = key.split("+")[0]
                result = guardband.thermal_aware_guardband(
                    flow, self.fabric, 25.0, config=_config(design)
                )
                gains.append(guardband_gain(
                    result.frequency_hz,
                    worst_case_frequency(flow, self.fabric),
                ))
                config = _config(design, self.refs.target_hz(design))
                times = []
                for _ in range(self.PROBE_REPEATS):
                    start = self.speed.now()
                    energy = guardband.thermal_aware_guardband(
                        flow, self.fabric, 25.0, config=config
                    )
                    times.append((start, self.speed.now() - start))
                savings.append(energy.energy.power_saving_fraction)
                timed.append(times)
            fmax = self._fmax_mhz(list(self.routed.values()), self.fabric)
        self.energy_latency_ms = [
            1e3 * statistics.median(self.speed.scaled(*t) for t in times)
            for times in timed
        ]
        return {
            "fmax_mhz": fmax,
            "gain_pct": 100.0 * statistics.fmean(gains),
            "energy_saving_pct": 100.0 * statistics.fmean(savings),
        }


class _GridWorkload(Workload):
    """Shared set-up of the cells and service workloads: fabrics plus
    cold P&R of :data:`CELL_DESIGNS` into the run's flow cache."""

    corners: Tuple[float, ...] = (25.0,)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.designs = list(CELL_DESIGNS)
        self.rng.shuffle(self.designs)
        self.pools: Dict[Tuple[str, str], List[float]] = {}
        self.drawn: Dict[Tuple[str, str], int] = {}
        for design in self.designs:
            for grid in GRIDS:
                self.pools[design, grid] = _stratified(
                    grid_ambients(grid), self.rng)
                self.drawn[design, grid] = 0

    def setup_steps(self) -> List[Callable[[], object]]:
        """Cold characterization per corner, then cold P&R per design."""
        self.fabrics: Dict[float, object] = {}
        self.flows: Dict[str, object] = {}
        return (
            [functools.partial(self._build_fabric, corner)
             for corner in self.corners]
            + [functools.partial(self._route, design)
               for design in self.designs]
        )

    def _build_fabric(self, corner: float) -> None:
        self.fabrics[corner] = fabric_mod.build_fabric(corner, ARCH)

    def _route(self, design: str) -> None:
        self.flows[design] = flow_mod.run_flow(vtr_benchmark(design), ARCH)

    def _design(self) -> str:
        return self.designs[self.rounds_done % len(self.designs)]

    def quality(self) -> Dict[str, float]:
        with self.untraced():
            fmax = self._fmax_mhz(list(self.flows.values()),
                                  self.fabrics[25.0])
        return {
            "fmax_mhz": fmax,
            "gain_pct": 100.0 * statistics.fmean(self.gains),
            "energy_saving_pct": 100.0 * statistics.fmean(self.savings),
        }


class CellsWorkload(_GridWorkload):
    """Looped Algorithm-1 cells through ``run_sweep([job], workers=1)``.

    A round, for the next design in seeded order: a frequency-mode cell
    near 25 C on D25, one near 70 C on D70, an energy-mode cell near
    25 C at the design's target, and the first cell again (a repeat:
    with no store, it is computed again).
    """

    name = "cells"
    primary = "frequency"
    energy = "energy"
    min_rounds = count_rounds = 30
    corners = (25.0, 70.0)
    required_layers = _CAD + _ALGORITHM1

    def _draw(self, design: str, grid: str) -> float:
        """The next ambient of the pool, cycling: with no store, a
        recurring ambient is computed again like any other."""
        pool = self.pools[design, grid]
        index = self.drawn[design, grid]
        self.drawn[design, grid] = index + 1
        return pool[index % len(pool)]

    def _cell(self, kind: str, design: str, grid: str,
              ambient: float) -> Op:
        energy = grid == "energy"
        job = SweepJob(
            benchmark=design, t_ambient=ambient, corner=GRIDS[grid][0],
            config=_config(
                design, self.refs.target_hz(design) if energy else None
            ),
            arch=ARCH,
        )
        activity = self._activity_s()
        start = self.speed.now()
        sweep = runner.run_sweep([job], workers=1)
        seconds = self.speed.now() - start
        activity = self._activity_s() - activity
        if sweep.failures or len(sweep.results) != 1:
            failure = sweep.failures[0] if sweep.failures else None
            return Op(kind, start, seconds, f"{job.job_id}: {failure}")
        result = sweep.results[0]
        if energy:
            error = self.refs.check_energy(design, ambient, result.vdd_v)
            if self._in_count_window():
                self.savings.append(result.energy_saving)
        else:
            error = self.refs.check_frequency(
                design, grid, ambient, result.frequency_hz, result.iterations
            )
            if self._in_count_window() and kind == "frequency":
                self.gains.append(result.gain)
        return Op(kind, start, seconds, error, activity_s=activity)

    def round(self) -> List[Op]:
        design = self._design()
        near25 = self._draw(design, "f25")
        ops = [
            self._cell("frequency", design, "f25", near25),
            self._cell("frequency", design, "f70", self._draw(design, "f70")),
            self._cell("energy", design, "energy",
                       self._draw(design, "energy")),
            self._cell("repeat", design, "f25", near25),
        ]
        self.rounds_done += 1
        return ops


class ServiceWorkload(_GridWorkload):
    """Grids submitted to an in-process sweep service.

    Set-up starts ``SweepClient(store=<fresh dir>, workers=1,
    batch=True)`` and computes a base frequency grid per design.  A
    round, for the next design: one fresh op — a frequency grid and an
    energy grid over ambients this run has not used, plus an overlapping
    resubmission of the frequency grid that joins the in-flight cells —
    then one repeat op that resubmits the design's base grid, served
    entirely from the store.  Results are read with ``stream()`` then
    ``result()``.  The service's scheduler and store threads share this
    process, so the host-speed probe runs between rounds, when they are
    idle (:meth:`HostSpeed.quiet`), never while they work.
    """

    name = "service"
    primary = "fresh"
    energy = "energy"
    min_rounds = count_rounds = 30
    required_layers = _CAD + _ALGORITHM1 + (
        "store.load", "store.put", "service.submit", "service.stream",
        "service.result",
    )
    CELLS = 4
    """Ambients per grid."""
    elasticity = 0.9
    """Measured on the 2-core Xeon across its two speed states, the
    probe 1.8x apart: fresh ops slowed as probe time to the power
    0.90-0.94, repeat ops 0.90 (part of a service op is IPC, thread
    hand-offs and file reads, which the host state slows less)."""
    probe_window_s = 0.05
    """About one round: the probes that bracket an op's round.  The
    probes sit between rounds, and a wider window lets an op that a
    short slow spell hit take the scale of its faster neighbours, which
    inflates ``latency_p90_ms``."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.base = {design: self._take(design, "f25")
                     for design in self.designs}
        self.client: Optional[SweepClient] = None
        self.n_cells = self.n_store_hits = self.n_deduped = 0
        self.fresh_ops = 0

    def _take(self, design: str, grid: str) -> Tuple[float, ...]:
        """The next ``CELLS`` ambients no earlier grid of the run used."""
        pool = self.pools[design, grid]
        index = self.drawn[design, grid]
        if index + self.CELLS > len(pool):
            raise Exhausted(f"{design}: no fresh {grid} ambients left")
        self.drawn[design, grid] = index + self.CELLS
        return tuple(sorted(pool[index:index + self.CELLS]))

    def setup_steps(self) -> List[Callable[[], object]]:
        """The shared steps, then service start and one base grid per
        design."""
        return super().setup_steps() + [self._start] + [
            functools.partial(self._base_grid, design)
            for design in self.designs
        ]

    def _start(self) -> None:
        self.store_root = self.scratch / "store"
        with self.speed.quiet():
            self.client = SweepClient(
                store=str(self.store_root), workers=1, batch=True,
                trace_path=self.trace_path,
            )

    def _base_grid(self, design: str) -> None:
        spec = ExperimentSpec(benchmarks=(design,), ambients=self.base[design])
        with self.speed.quiet():
            result = self._read(self._submit(spec))
        error = self._check(result, design, "f25", tally=False)
        if error is not None:
            raise RuntimeError(f"service base grid: {error}")

    def _submit(self, spec: ExperimentSpec) -> str:
        assert self.client is not None
        return self.client.submit(spec)

    def _read(self, job_id: str) -> Dict[str, object]:
        """Stream the job to its end, then fetch its cells."""
        assert self.client is not None
        for _ in self.client.stream(job_id):
            pass
        return self.client.result(job_id)

    def _check(self, result: Dict[str, object], design: str, grid: str,
               tally: bool = True) -> Optional[str]:
        """Check every cell of a grid; collect quality in the window."""
        if result["status"] != "done":
            return f"{result['job_id']}: status {result['status']}"
        cells = result["cells"]
        if len(cells) != result["n_cells"]:  # type: ignore[arg-type]
            return f"{result['job_id']}: {len(cells)} cells read back"
        count = tally and self._in_count_window()
        for cell in cells:  # type: ignore[union-attr]
            ambient = float(cell["t_ambient"])
            if grid == "energy":
                error = self.refs.check_energy(design, ambient, cell["vdd_v"])
                if count:
                    self.savings.append(cell["energy_saving"])
            else:
                error = self.refs.check_frequency(
                    design, grid, ambient, cell["frequency_hz"],
                    cell["iterations"],
                )
                if count and cell.get("source") == "computed":
                    self.gains.append(cell["gain"])
            if error is not None:
                return error
        return None

    def _tally(self, *results: Dict[str, object]) -> None:
        """Cell, store-hit and dedup-join counts of the count window."""
        if not self._in_count_window():
            return
        for result in results:
            self.n_cells += int(result["n_cells"])  # type: ignore[arg-type]
            self.n_store_hits += int(result["n_store_hits"])  # type: ignore[arg-type]
            self.n_deduped += int(result["n_deduped"])  # type: ignore[arg-type]

    def _merge_trace(self) -> None:
        if self.ledger is not None and self.trace_path is not None:
            self.ledger.merge_trace(self.trace_path)

    def round(self) -> List[Op]:
        assert self.client is not None
        design = self._design()
        fresh = self._take(design, "f25")
        fresh_energy = self._take(design, "energy")
        frequency_spec = ExperimentSpec(benchmarks=(design,), ambients=fresh)
        energy_spec = ExperimentSpec(
            benchmarks=(design,), ambients=fresh_energy, mode="energy",
            target_frequency_hz=self.refs.target_hz(design),
        )
        base_spec = ExperimentSpec(benchmarks=(design,),
                                   ambients=self.base[design])
        activity = self._activity_s()

        with self.speed.quiet():
            fresh_start = self.speed.now()
            energy_job = self._submit(energy_spec)
            frequency_job = self._submit(frequency_spec)
            overlap_job = self._submit(frequency_spec)
            energy_result = self._read(energy_job)
            energy_seconds = self.speed.now() - fresh_start
            frequency_result = self._read(frequency_job)
            overlap_result = self._read(overlap_job)
            fresh_seconds = self.speed.now() - fresh_start

            repeat_start = self.speed.now()
            repeat_result = self._read(self._submit(base_spec))
            repeat_seconds = self.speed.now() - repeat_start

        with self.untraced():
            fresh_error = (
                self._check(energy_result, design, "energy")
                or self._check(frequency_result, design, "f25")
                or self._check(overlap_result, design, "f25", tally=False)
            )
            if overlap_result["n_deduped"] != overlap_result["n_cells"]:
                fresh_error = fresh_error or (
                    f"{overlap_job}: {overlap_result['n_deduped']} dedup joins")
            repeat_error = self._check(repeat_result, design, "f25")
            if repeat_result["n_store_hits"] != repeat_result["n_cells"]:
                repeat_error = repeat_error or (
                    f"{repeat_result['job_id']}: "
                    f"{repeat_result['n_store_hits']} store hits")
        self._tally(energy_result, frequency_result, overlap_result,
                    repeat_result)

        self._merge_trace()
        if self._in_count_window():
            self.fresh_ops += 1
        self.rounds_done += 1
        return [
            Op("fresh", fresh_start, fresh_seconds, fresh_error, units=3,
               activity_s=self._activity_s() - activity),
            Op("energy", fresh_start, energy_seconds, units=0,
               attempted=False),
            Op("repeat", repeat_start, repeat_seconds, repeat_error),
        ]

    def extra_counts(self) -> Dict[str, float]:
        return {
            "service.store_hit_ratio": self.n_store_hits / max(self.n_cells, 1),
            "service.dedup_joins_per_op": self.n_deduped / max(self.fresh_ops, 1),
        }

    def store_entry_bytes(self) -> float:
        from repro.store import open_store

        store = open_store(self.store_root)
        sizes = [store.path_for(d).stat().st_size for d in store.digests()]
        return statistics.fmean(sizes) if sizes else 0.0

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None


WORKLOADS = {
    workload.name: workload
    for workload in (FlowWorkload, CellsWorkload, ServiceWorkload)
}
