"""Experiment specification — the grid a sweep expands into.

An :class:`ExperimentSpec` describes the paper's evaluation shape
declaratively: *benchmarks x ambients x corners* under one (or
per-benchmark) :class:`~repro.core.guardband.GuardbandConfig`.  Figs. 6-7
are ``corners=(25,)`` grids over the VTR suite at one ambient; Fig. 8 is a
two-corner grid at 70 C; the datacenter example is a 1-benchmark,
2-corner cell.  :meth:`ExperimentSpec.expand` flattens the grid into
:class:`SweepJob` values — frozen, picklable, self-contained units the
engine can hand to any worker process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.arch.params import ArchParams
from repro.coffe.fabric import check_junction_celsius
from repro.core.guardband import GuardbandConfig
from repro.netlists.generator import NetlistSpec
from repro.netlists.netlist import Netlist
from repro.netlists.vtr_suite import VTR_BENCHMARKS, benchmark_names

BenchmarkLike = Union[str, NetlistSpec]

_VTR_BY_NAME = {s.name: s for s in VTR_BENCHMARKS}


@dataclass(frozen=True)
class SweepJob:
    """One cell of the sweep grid: a benchmark at one operating point.

    Fully self-contained and picklable; a worker process needs nothing
    else to reproduce the cell deterministically.
    """

    benchmark: str
    """Benchmark name (VTR suite) — display and grouping key."""
    t_ambient: float
    """Ambient (junction base) temperature for Algorithm 1, Celsius."""
    corner: float
    """Fabric design corner the device is characterized at, Celsius."""
    config: GuardbandConfig
    arch: ArchParams
    seed: int = 7
    timing_driven: bool = False
    netlist_spec: Optional[NetlistSpec] = None
    """Explicit synthetic netlist; ``None`` resolves ``benchmark`` through
    the VTR suite."""

    @property
    def job_id(self) -> str:
        return f"{self.benchmark}@T{self.t_ambient:g}@D{self.corner:g}"

    def resolve_netlist(self) -> Netlist:
        """Materialise the (deterministic, seeded) benchmark netlist."""
        # Imported lazily: workers resolve after fork/spawn.
        from repro.netlists.generator import generate_netlist
        from repro.netlists.vtr_suite import vtr_benchmark

        if self.netlist_spec is not None:
            return generate_netlist(self.netlist_spec)
        return vtr_benchmark(self.benchmark)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative sweep grid: benchmarks x ambients x corners.

    ``benchmarks`` entries are VTR benchmark names or explicit
    :class:`NetlistSpec` objects.  With ``config=None`` every benchmark
    uses its suite ``base_activity`` (matching the paper's per-design
    activities); an explicit config applies uniformly to every cell.
    """

    benchmarks: Tuple[BenchmarkLike, ...]
    ambients: Tuple[float, ...] = (25.0,)
    corners: Tuple[float, ...] = (25.0,)
    arch: ArchParams = field(default_factory=ArchParams)
    config: Optional[GuardbandConfig] = None
    seed: int = 7
    timing_driven: bool = False
    thermal_weight: float = 0.0
    """Thermal-aware placement blend applied to every cell's config (see
    :attr:`repro.core.guardband.GuardbandConfig.thermal_weight`).  A
    nonzero spec-level value overrides the per-cell configs so one knob
    turns the whole grid thermal-aware."""
    mode: str = "frequency"
    """Objective applied to every cell's config (see
    :attr:`repro.core.guardband.GuardbandConfig.mode`): ``"frequency"``
    maximises the guardbanded clock, ``"energy"`` scales the supply down
    at ``target_frequency_hz``.  Like ``thermal_weight``, a non-default
    spec-level value overrides the per-cell configs so one knob flips
    the whole grid's objective."""
    target_frequency_hz: Optional[float] = None
    """Iso-frequency clock for ``mode="energy"``, hertz; must stay
    ``None`` in frequency mode."""

    def __post_init__(self) -> None:
        if not self.benchmarks:
            raise ValueError("ExperimentSpec needs at least one benchmark")
        # The spec-level knobs that _job_config applies obey the config's
        # own rules, with the same messages.
        GuardbandConfig(
            thermal_weight=self.thermal_weight,
            mode=self.mode,
            target_frequency_hz=self.target_frequency_hz,
        )
        if not self.ambients or not self.corners:
            raise ValueError(
                "ExperimentSpec needs at least one ambient and one corner"
            )
        # NaN/inf would flow into store digests (NaN != NaN, so the
        # resulting cache entries could never be hit again) and into the
        # thermal solve; reject them at the declaration boundary.
        for name, values in (("ambients", self.ambients),
                             ("corners", self.corners)):
            for value in values:
                if not math.isfinite(value):
                    raise ValueError(
                        f"ExperimentSpec {name} must be finite numbers, "
                        f"got {value!r}"
                    )
        for value in self.ambients:
            check_junction_celsius(value, "ExperimentSpec ambient")
        for bench in self.benchmarks:
            if isinstance(bench, str) and bench not in _VTR_BY_NAME:
                known = ", ".join(benchmark_names())
                raise ValueError(
                    f"unknown VTR benchmark {bench!r}; known: {known}"
                )

    @property
    def n_jobs(self) -> int:
        return len(self.benchmarks) * len(self.ambients) * len(self.corners)

    def _job_config(self, bench: BenchmarkLike) -> GuardbandConfig:
        if self.config is not None:
            config = self.config
        elif isinstance(bench, NetlistSpec):
            config = GuardbandConfig(base_activity=bench.base_activity)
        else:
            config = GuardbandConfig(
                base_activity=_VTR_BY_NAME[bench].base_activity
            )
        # 0.0 is the "off" default; any other weight overrides the configs.
        if self.thermal_weight != 0.0:  # repro-lint: ignore[float-equality] off default
            config = config.with_changes(thermal_weight=self.thermal_weight)
        if self.mode != "frequency":
            config = config.with_changes(
                mode=self.mode,
                target_frequency_hz=self.target_frequency_hz,
            )
        return config

    def expand(self) -> List[SweepJob]:
        """Flatten the grid, benchmark-major so workers hitting the same
        design queue on one flow-cache lock instead of re-placing it."""
        jobs: List[SweepJob] = []
        for bench in self.benchmarks:
            name = bench.name if isinstance(bench, NetlistSpec) else bench
            spec = bench if isinstance(bench, NetlistSpec) else None
            config = self._job_config(bench)
            for corner in self.corners:
                for t_ambient in self.ambients:
                    jobs.append(
                        SweepJob(
                            benchmark=name,
                            t_ambient=float(t_ambient),
                            corner=float(corner),
                            config=config,
                            arch=self.arch,
                            seed=self.seed,
                            timing_driven=self.timing_driven,
                            netlist_spec=spec,
                        )
                    )
        return jobs
