"""P&R speed gates: ``route()`` and ``place()`` time in units of a fixed
pure-Python search.

Routes and places the six perfbench ``flow`` ops (the designs and modes
of ``perfbench/references.py::FLOW_OPS``), routing on fresh RR graphs,
and times each call against :func:`reference_search`, a fixed A* search
on a fixed grid graph made of the router's own ingredients: successor
lists, a cost list, a distance list, ``heapq`` entries of tuples and a
predecessor dict.  One search runs right before each call, in one
process, so the host's speed cancels in their ratio; each gate reads
the median ratio of ``ROUNDS`` rounds (:func:`per_search`).  Timing
the search once per round instead left it too noisy on a shared host.
Exact P&R work is pinned elsewhere (``tests/data/golden_work.json``);
these gates guard the constant factor per unit of that work.

The first two budgets are restated from gates that divided by an
RR-graph builder's time on the same layouts: ``ROUTE_BUDGET`` from
routing under 3.0 times the list-filling builder's time,
``PLACE_BUDGET`` from placement under 135 times the array builder's
time.  A third gate times the thermal-aware op's ``place()`` on its own
(``THERMAL_PLACE_BUDGET``), whose proxy the six-op sum hides.  The
module constants below give the measurements.

Run: ``python -m pytest benchmarks/bench_route_speed.py -x -q -s``
(about 35 s once the six flows are in the flow cache).  Measure the
array builder in search units with
``python benchmarks/bench_route_speed.py --builder``.
"""

from __future__ import annotations

import heapq
import statistics
import sys
import time

import pytest

from repro.arch.params import ArchParams
from repro.arch.rrgraph import build_rr_graph
from repro.cad.criticality import criticality_weights
from repro.cad.flow import run_flow
from repro.cad.place import place
from repro.cad.route import route
from repro.netlists.vtr_suite import vtr_benchmark

FLOW_OPS = (
    ("sha", False, 0.0),
    ("mkPktMerge", False, 0.0),
    ("raygentop", False, 0.0),
    ("diffeq1", False, 0.0),
    ("sha", True, 0.0),
    ("mkPktMerge", False, 0.7),
)
"""(design, timing_driven, thermal_weight) of the perfbench ``flow`` ops."""

BUILDER_PER_SEARCH = 1.919
"""The list-filling RR-graph builder's time on the six ops' layouts, in
reference searches, timed by :func:`per_search`: the median of 60
rounds in one process on a shared 2-core Xeon (EXPERIMENTS.md)."""

ROUTE_BUDGET = 5.75
"""3.0 x ``BUILDER_PER_SEARCH`` = 5.757, rounded down so routing's
budget does not grow."""

ARRAY_BUILDER_PER_SEARCH = 0.0981
"""The array RR-graph builder's time on the six ops' layouts, in
reference searches: the median of 60 rounds of :func:`per_search`
(``--builder``), the middle of three such runs (0.0964-0.1014) in one
process each on a shared 2-core Xeon (EXPERIMENTS.md)."""

PLACE_BUDGET = 13.2
"""135 x ``ARRAY_BUILDER_PER_SEARCH`` = 13.24, rounded down so placement's
budget does not grow: CI's traced ``flow`` step used to fail at
``cad.place_s >= 135 x arch.rrgraph_s``.  Placement is timed as that
layer was: ``criticality_weights`` for the timing-driven op, then
``place()``."""

THERMAL_OP = 5
"""Index in :data:`FLOW_OPS` of the thermal-aware op, gated on its own."""

THERMAL_PLACE_BUDGET = 19.6
"""The thermal op's ``place()`` alone, in reference searches: the median
of ten runs of :func:`test_thermal_place_within_budget` on the proxy that
priced each move from a per-move dict of spread deltas (17.75-20.21,
median 19.605, rounded down), on a shared 2-core Xeon.  The proxy that
prices from memoized footprint plans read 13.45-14.69 in ten runs
alternating with ten more of the parent's (17.98-20.67).
``PLACE_BUDGET`` sums six ops, so it would still pass this op at twice
its proxy cost; this gate would not."""

ROUNDS = 9

SIDE = 80
"""The reference graph is a ``SIDE`` x ``SIDE`` grid."""


def _reference_graph():
    succ = []
    for v in range(SIDE * SIDE):
        x, y = v % SIDE, v // SIDE
        succ.append([
            w for w, inside in (
                (v - 1, x > 0), (v + 1, x < SIDE - 1),
                (v - SIDE, y > 0), (v + SIDE, y < SIDE - 1),
            ) if inside
        ])
    cost = [1.0 + (v * 2654435761 % 1000) / 1000.0 for v in range(SIDE * SIDE)]
    return succ, cost


_GRAPH = _reference_graph()


def reference_search() -> float:
    """Sum of the path costs of a fixed set of A* searches corner to
    corner and across the middle of the reference grid."""
    succ, cost = _GRAPH
    n = SIDE * SIDE
    total = 0.0
    mid = SIDE // 2
    pairs = [(0, n - 1), (SIDE - 1, n - SIDE), (mid, n - mid - 1),
             (mid * SIDE, mid * SIDE + SIDE - 1)]
    for source, target in pairs:
        tx, ty = target % SIDE, target // SIDE
        dist = [float("inf")] * n
        prev = {}
        dist[source] = 0.0
        heap = [(0.0, source, 0.0)]
        while heap:
            f, u, h = heapq.heappop(heap)
            d = dist[u]
            if f > d + h + 1e-12:
                continue
            if u == target:
                break
            for v in succ[u]:
                nd = d + cost[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    hv = (abs(v % SIDE - tx) + abs(v // SIDE - ty)) * 0.5
                    heapq.heappush(heap, (nd + hv, v, hv))
        total += dist[target]
    return total


def per_search(work, rounds: int, ops=range(len(FLOW_OPS))) -> list:
    """Per round: the time of ``work(i)`` for every op ``i`` of ``ops``
    over that of the reference searches run one right before each, so
    both sample the host over the same stretch of time."""
    ratios = []
    for _ in range(rounds):
        searching = working = 0.0
        for i in ops:
            start = time.perf_counter()
            reference_search()
            middle = time.perf_counter()
            work(i)
            searching += middle - start
            working += time.perf_counter() - middle
        ratios.append(working / searching)
    return ratios


@pytest.fixture(scope="module")
def flows(arch):
    return [
        run_flow(vtr_benchmark(design), arch, timing_driven=timing_driven,
                 thermal_weight=weight)
        for design, timing_driven, weight in FLOW_OPS
    ]


def test_route_within_budget(arch, flows):
    graphs = [build_rr_graph(arch, flow.layout) for flow in flows]
    ratio = statistics.median(per_search(
        lambda i: route(flows[i].packed, flows[i].placement, graphs[i]), ROUNDS
    ))
    print(f"\nroute() = {ratio:.2f} reference searches "
          f"(budget {ROUTE_BUDGET}, {ratio / BUILDER_PER_SEARCH:.2f}x the "
          f"list builder's time)")
    assert ratio < ROUTE_BUDGET, (
        f"routing the six perfbench flow ops takes {ratio:.2f} reference "
        f"searches (budget {ROUTE_BUDGET})"
    )


def _place(flow, timing_driven: bool, weight: float) -> None:
    net_weights = criticality_weights(flow.netlist) if timing_driven else None
    place(flow.packed, flow.layout, seed=7, net_weights=net_weights,
          thermal_weight=weight)


def test_place_within_budget(flows):
    ratio = statistics.median(per_search(
        lambda i: _place(flows[i], *FLOW_OPS[i][1:]), ROUNDS
    ))
    print(f"\nplace() = {ratio:.2f} reference searches "
          f"(budget {PLACE_BUDGET}, {ratio / ARRAY_BUILDER_PER_SEARCH:.1f}x "
          f"the array builder's time)")
    assert ratio < PLACE_BUDGET, (
        f"placing the six perfbench flow ops takes {ratio:.2f} reference "
        f"searches (budget {PLACE_BUDGET})"
    )


def test_thermal_place_within_budget(flows):
    ratio = statistics.median(per_search(
        lambda i: _place(flows[i], *FLOW_OPS[i][1:]), ROUNDS, [THERMAL_OP]
    ))
    design, _timing, weight = FLOW_OPS[THERMAL_OP]
    print(f"\nplace() of {design} at thermal_weight={weight} = {ratio:.2f} "
          f"reference searches (budget {THERMAL_PLACE_BUDGET})")
    assert ratio < THERMAL_PLACE_BUDGET, (
        f"placing {design} at thermal_weight={weight} takes {ratio:.2f} "
        f"reference searches (budget {THERMAL_PLACE_BUDGET})"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--builder"]:
        sys.exit(f"usage: {sys.argv[0]} --builder")
    arch = ArchParams()
    layouts = [
        run_flow(vtr_benchmark(design), arch, timing_driven=timing_driven,
                 thermal_weight=weight).layout
        for design, timing_driven, weight in FLOW_OPS
    ]
    ratios = per_search(lambda i: build_rr_graph(arch, layouts[i]), 60)
    quartiles = statistics.quantiles(ratios, n=4)
    print(f"array builder = {statistics.median(ratios):.4f} reference "
          f"searches (median of 60 rounds; quartiles {quartiles[0]:.4f}, "
          f"{quartiles[2]:.4f})")
