"""End-to-end CAD flow driver: pack -> place -> route -> timing graph.

:func:`run_flow` produces a :class:`FlowResult`, the placed-and-routed
design object Algorithm 1 consumes.  Results are cached per
(netlist name, architecture, seed, thermal weight): the implementation
is independent of
the temperature assumptions, so every experiment (guardbanding at several
ambients, corner-fabric comparisons) reuses the same mapping — exactly as
the paper evaluates one P&R per benchmark under different timing regimes.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional

from repro import observe, pickledir
from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import build_rr_graph
from repro.cad.criticality import criticality_weights
from repro.cad.pack import PackedNetlist, pack_netlist
from repro.cad.place import Placement, place
from repro.cad.route import RoutingError, RoutingResult, route
from repro.cad.timing import TimingAnalyzer
from repro.memo import Memo
from repro.netlists.netlist import Netlist


@dataclass
class FlowResult:
    """A placed-and-routed design plus its timing analyzer."""

    netlist: Netlist
    arch: ArchParams
    layout: FabricLayout
    packed: PackedNetlist
    placement: Placement
    routing: RoutingResult
    timing: TimingAnalyzer
    cache_key: str
    """Deterministic flow-cache key for this (netlist, arch, seed) —
    set by :func:`run_flow` even with disk caching disabled, so
    downstream keying (e.g. the :mod:`repro.store` result digest) works
    regardless of cache configuration."""

    @property
    def n_tiles(self) -> int:
        return self.layout.n_tiles


FLOW_MEMO_SIZE = 32
"""Flows kept in memory per process.  The most distinct flows one process
in ``benchmarks/``, ``examples/`` or perfbench asks for is 24 (``pytest
benchmarks``: the VTR-19 suite plus timing-driven and thermal-aware
placements of three designs).  A ``stereovision1`` flow holds 1.6-1.8 MB,
so a service keeps at most about 55 MB of flows; an evicted flow
reloads from the disk cache in milliseconds."""

_flows: Memo[FlowResult] = Memo("flow.memo", FLOW_MEMO_SIZE)

_CACHE_COUNTS = {"hit": 0, "miss": 0, "quarantine": 0}
"""Process-lifetime flow-cache behaviour.  Always-on (cache events are
rare, an int bump is free) so sweep consumers see cache behaviour even
without an observability session; mirrored into ``flow.cache.*``
counters when one is active."""


def cache_counters() -> Dict[str, int]:
    """Snapshot of this process's flow-cache hit/miss/quarantine counts.

    The sweep engine diffs two snapshots around each job to attribute
    cache behaviour per grid cell (:attr:`JobResult.cache_events`).
    """
    return dict(_CACHE_COUNTS)


def _count_cache(kind: str, **attrs: object) -> None:
    _CACHE_COUNTS[kind] += 1
    observe.counter(f"flow.cache.{kind}").inc()
    observe.event(f"flow.cache.{kind}", **attrs)


FLOW_CACHE_VERSION = 6
"""Bump to invalidate on-disk flow caches after algorithmic changes.

Version 6: the RR graph inside every ``FlowResult`` became flat arrays
(:class:`~repro.arch.rrgraph.RRGraph` in CSR form) instead of one object
per node and per edge.  A v5 pickle names ``RRNode``/``RREdge``, which
no longer exist, so it must never be read as a hit.  The graph, the
routes and every number derived from them are unchanged.

Version 5: thermal-aware placement — the placer grew a ``thermal_weight``
objective term, and the weight became a key component (``w...``); stale
v4 pickles would otherwise alias the new thermal-aware mappings.

Version 4: the architecture component of the key became a deterministic
SHA-256 digest (:func:`arch_digest`) so keys are identical across worker
processes and Python versions — ``hash()`` of a dataclass is salted per
interpreter (``PYTHONHASHSEED``), which made sweep workers recompute
instead of sharing P&R work.
"""


def arch_digest(arch: ArchParams) -> str:
    """Deterministic short digest of every :class:`ArchParams` field.

    SHA-256 over the ``(name, value)`` field tuple ``repr``; stable across
    processes, interpreter restarts and Python versions (unlike ``hash``).
    """
    payload = repr(
        tuple((f.name, getattr(arch, f.name)) for f in fields(arch))
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def flow_cache_key(
    netlist: Netlist, arch: ArchParams, seed: int, thermal_weight: float = 0.0
) -> str:
    """The deterministic disk-cache key for one (netlist, arch, seed, w)."""
    return (
        f"v{FLOW_CACHE_VERSION}_{netlist.name}_b{netlist.n_blocks}"
        f"_n{netlist.n_nets}_s{seed}_w{thermal_weight:g}_a{arch_digest(arch)}"
    )


_TIMING_DRIVEN_SEED_OFFSET = 1_000_003
"""timing_driven folds into the cache key through the seed namespace."""


def flow_cache_key_for(
    netlist: Netlist,
    arch: ArchParams,
    seed: int = 7,
    timing_driven: bool = False,
    thermal_weight: float = 0.0,
) -> str:
    """The cache key :func:`run_flow` will assign, without running P&R.

    This is what lets a scheduler address a cell's result-store digest
    (:func:`repro.store.store_digest`) before any flow has executed:
    the key is a pure function of the resolved netlist, the architecture
    digest, the seed namespace, the thermal weight and
    ``FLOW_CACHE_VERSION``.
    """
    cache_seed = seed + (_TIMING_DRIVEN_SEED_OFFSET if timing_driven else 0)
    return flow_cache_key(netlist, arch, cache_seed, thermal_weight)


def _disk_cache_path(
    netlist: Netlist, arch: ArchParams, seed: int, thermal_weight: float = 0.0
) -> Optional[Path]:
    """Location of the pickled flow result, or ``None`` if caching is off.

    P&R of the full suite takes minutes; experiments re-use identical
    mappings, so results persist under ``$REPRO_CACHE_DIR`` (default
    ``~/.cache/repro-flows``).  Set ``REPRO_CACHE_DIR=off`` to disable.
    """
    root = os.environ.get("REPRO_CACHE_DIR", "")
    if root.lower() == "off":
        return None
    base = Path(root) if root else Path.home() / ".cache" / "repro-flows"
    return pickledir.entry_path(
        base, flow_cache_key(netlist, arch, seed, thermal_weight)
    )


def run_flow(
    netlist: Netlist,
    arch: Optional[ArchParams] = None,
    seed: int = 7,
    use_cache: bool = True,
    timing_driven: bool = False,
    thermal_weight: float = 0.0,
) -> FlowResult:
    """Pack, place and route ``netlist`` on the architecture.

    The layout is auto-sized to the design (VPR-style).  Deterministic for
    a given (netlist, arch, seed, thermal_weight).  ``timing_driven=True``
    weights the placement by structural net criticality
    (:mod:`repro.cad.criticality`), shortening deep register-to-register
    paths.  ``thermal_weight > 0`` blends the thermal proxy objective of
    :mod:`repro.cad.thermal_place` into the anneal (0 is the legacy
    wirelength/timing-only placement, bit-identical to before the knob
    existed).

    Every parameter except ``netlist`` and ``use_cache`` is a component
    of the cache key (:func:`flow_cache_key_for`), so a knob that changes
    the mapping can never alias a cached one.  Placement effort is not a
    knob here: call :func:`repro.cad.place.place` with ``effort=`` for a
    low-effort placement.
    """
    arch = arch or ArchParams()
    if not use_cache:
        return _compute_flow(netlist, arch, seed, timing_driven, thermal_weight)
    cache_seed = seed + (_TIMING_DRIVEN_SEED_OFFSET if timing_driven else 0)
    key = (netlist.name, arch, cache_seed, thermal_weight)
    result = _flows.lookup(key)
    if result is not None:
        _count_cache("hit", source="memory", netlist=netlist.name)
        return result
    disk_path = _disk_cache_path(netlist, arch, cache_seed, thermal_weight)
    if disk_path is None:
        result = _compute_flow(netlist, arch, seed, timing_driven, thermal_weight)
        return _flows.put(key, result)
    # Serialise compute-and-store per entry so parallel sweep workers share
    # one P&R instead of racing to duplicate (or corrupt) it: the first
    # pays the P&R cost and writes the pickle, the rest wake up and read it.
    with pickledir.entry_lock(disk_path):
        result, kind = pickledir.load(disk_path, FlowResult)
        if kind == "quarantine":
            _count_cache("quarantine", path=disk_path.name)
        if result is None:
            result = _compute_flow(
                netlist, arch, seed, timing_driven, thermal_weight
            )
            pickledir.write(disk_path, result)
        else:
            _count_cache("hit", source="disk", netlist=netlist.name)
    return _flows.put(key, result)


def _compute_flow(
    netlist: Netlist,
    arch: ArchParams,
    seed: int,
    timing_driven: bool,
    thermal_weight: float,
) -> FlowResult:
    """The uncached pack -> place -> route -> STA pipeline."""
    _count_cache("miss", netlist=netlist.name, seed=seed)
    compute_span = observe.span(
        "flow.compute",
        netlist=netlist.name,
        seed=seed,
        timing_driven=timing_driven,
        thermal_weight=thermal_weight,
    )
    with compute_span:
        with observe.span("flow.pack"):
            packed = pack_netlist(netlist, arch)
        counts = {
            TileType.CLB: 0,
            TileType.BRAM: 0,
            TileType.DSP: 0,
            TileType.IO: 0,
        }
        for cluster in packed.clusters:
            counts[cluster.type] += 1
        layout = FabricLayout.for_netlist(
            arch,
            n_clb=counts[TileType.CLB],
            n_bram=counts[TileType.BRAM],
            n_dsp=counts[TileType.DSP],
            n_io=counts[TileType.IO],
        )
        with observe.span("flow.place", thermal_weight=thermal_weight):
            net_weights = criticality_weights(netlist) if timing_driven else None
            placement = place(
                packed, layout, seed=seed, net_weights=net_weights,
                thermal_weight=thermal_weight,
            )
        # VPR-style channel-width adaptation: retry with wider channels when
        # PathFinder cannot resolve congestion.
        width = arch.routed_channel_tracks
        routing = None
        last_error: Optional[RoutingError] = None
        with observe.span("flow.route") as route_span:
            for attempts in range(1, 5):
                if attempts > 1:
                    width = int(width * 1.5)
                graph = build_rr_graph(
                    arch.with_changes(routed_channel_tracks=width), layout
                )
                try:
                    routing = route(packed, placement, graph)
                    break
                except RoutingError as error:
                    last_error = error
            route_span.set_attrs(attempts=attempts, tracks=width)
            if routing is not None:
                route_span.set_attrs(iterations=routing.iterations)
        if routing is None:
            raise RoutingError(
                f"{netlist.name}: unroutable even at {width} tracks, "
                f"the widest of {attempts} attempts"
            ) from last_error
        with observe.span("flow.sta_build"):
            timing = TimingAnalyzer(packed, placement, routing, layout)
        compute_span.set_attrs(n_tiles=layout.n_tiles)
    return FlowResult(
        netlist, arch, layout, packed, placement, routing, timing,
        cache_key=flow_cache_key_for(
            netlist, arch, seed, timing_driven, thermal_weight
        ),
    )
