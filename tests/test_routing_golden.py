"""Golden place-and-route outputs: the placer and router must reproduce
them bit for bit.

``tests/data/golden_routing.json`` fingerprints the placement and the
routing of :data:`FLOWS`: the ``tiny`` design of ``conftest.py`` at two
seeds, one generated mid-size design, and one thermal-aware,
timing-driven flow.  Per flow it holds

- the sha256 of the placement (every cluster's location),
- the PathFinder iterations and ``total_wire_nodes()``,
- the sha256 of every routed net's ``(source, sorted sink_paths)``,
- for the thermal flow, the :class:`ThermalPlaceStats` floats exactly.

It also pins congested routing, which the flows above (3-4 PathFinder
iterations each) barely reach: ``tiny`` placed at seed 7 and routed by
:func:`route` on RR graphs of :data:`CONGESTED` channel widths.  At 20
tracks the router needs 14 iterations of rising history and present
costs; at 16 it gives up, and the golden holds its exact
:class:`RoutingError` text.

The P&R kernels promise the same arithmetic in the same order as the
plain-loop code the file was recorded from (the same ``rng`` draws, the
same HPWL summation order, the same heap tie-breaks), so every check is
plain equality.

Record (only when a change is *meant* to move placements or routes) from
the repo root; ``PYTHONPATH`` picks the source tree the goldens come
from.  The committed file was recorded from the scalar-loop kernels of
commit ``fcd0185`` with::

    mkdir -p /tmp/parent && git archive fcd0185 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_routing_golden.py --record

and re-recording from the current tree is::

    PYTHONPATH=src python tests/test_routing_golden.py --record

The :data:`CONGESTED` entries were added by the first command run on a
copy of commit ``f9b284c``; the flows' entries came out unchanged.

``tests/data/golden_flow_routes.json`` holds the same routing record for
the six perfbench ``flow`` ops (``FLOW_OPS`` of
``test_cad_place_route.py``), run as that workload runs them
(``run_flow(..., use_cache=False)``): VTR designs on 5x5 to 9x9 dies,
where every net of the two smaller dies covers the die and nearly every
net of the 9x9 ones is boxed.  It was recorded from the router before
its searches read a per-search heuristic row, by::

    PYTHONPATH=src python tests/test_routing_golden.py --record-flow-routes

``tests/data/golden_flow_thermal.json`` pins the thermal-aware one of
those ops (:func:`flow_thermal_record`): its placement, its rosters in
roster order, and its ``thermal_stats`` with every float as
``float.hex``.  ``proxy_cost`` is the incrementally tracked thermal cost
at the end of the anneal, so a reordered sum in the proxy's pricing or
commit moves it.  It was recorded from the proxy that priced each move
with a per-move dict of spread deltas, before it priced from memoized
footprint plans, by::

    PYTHONPATH=src python tests/test_routing_golden.py --record-flow-thermal
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.arch.layout import FabricLayout, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import build_rr_graph
from repro.cad.criticality import criticality_weights
from repro.cad.flow import FlowResult, run_flow
from repro.cad.pack import PackedNetlist, pack_netlist
from repro.cad.place import Placement, place
from repro.cad.route import RoutingError, RoutingResult, route
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.vtr_suite import vtr_benchmark
from test_cad_place_route import FLOW_OPS, _flow_key, _layout_for

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_routing.json"
FLOW_ROUTES_PATH = GOLDEN_PATH.with_name("golden_flow_routes.json")
FLOW_THERMAL_PATH = GOLDEN_PATH.with_name("golden_flow_thermal.json")
THERMAL_FLOW_OPS = [op for op in FLOW_OPS if op[2]]

TINY = NetlistSpec(
    "tiny", n_luts=24, n_brams=1, n_dsps=1, depth=5, seed=42,
    base_activity=0.2,
)
MID = NetlistSpec("mid", n_luts=64, n_brams=2, n_dsps=1, depth=6, seed=9)

FLOWS: Dict[str, Tuple[NetlistSpec, Dict[str, object]]] = {
    "tiny_seed11": (TINY, {"seed": 11}),
    "tiny_seed3": (TINY, {"seed": 3}),
    "mid_seed7": (MID, {"seed": 7}),
    "tiny_thermal0.3_timing": (
        TINY, {"seed": 5, "thermal_weight": 0.3, "timing_driven": True}
    ),
}
"""Flow name -> (design, ``run_flow`` keyword arguments)."""

CONGESTED: Dict[str, int] = {
    "tiny_seed7_20tracks": 20,
    "tiny_seed7_16tracks": 16,
}
"""Congested-routing entry -> ``routed_channel_tracks`` of its RR graph."""


def _sha(payload: object) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _placement_sha(placement: Placement) -> str:
    location = placement.location
    return _sha(sorted([cid, list(xy)] for cid, xy in location.items()))


def _routing_record(routing: RoutingResult) -> Dict[str, object]:
    return {
        "iterations": routing.iterations,
        "total_wire_nodes": routing.total_wire_nodes(),
        "nets": {
            str(net_id): _sha(
                [net.source_node, sorted(net.sink_paths.items())]
            )
            for net_id, net in sorted(routing.routes.items())
        },
    }


def fingerprint(flow: FlowResult) -> Dict[str, object]:
    """The golden record of one placed-and-routed flow."""
    record: Dict[str, object] = {
        "placement_sha256": _placement_sha(flow.placement),
        **_routing_record(flow.routing),
    }
    stats = flow.placement.thermal_stats
    if stats is not None:
        record["thermal_stats"] = asdict(stats)
    return record


def _run(name: str) -> FlowResult:
    spec, kwargs = FLOWS[name]
    return run_flow(
        generate_netlist(spec), ArchParams(), use_cache=False, **kwargs
    )


def _tiny_seed7() -> Tuple[PackedNetlist, Placement]:
    arch = ArchParams()
    packed = pack_netlist(generate_netlist(TINY), arch)
    counts = {t: 0 for t in TileType}
    for cluster in packed.clusters:
        counts[cluster.type] += 1
    layout = FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )
    return packed, place(packed, layout, seed=7)


def congested_record(
    packed: PackedNetlist, placement: Placement, tracks: int
) -> Dict[str, object]:
    """The golden record of ``route`` at ``tracks``: the routing, or
    the text of the :class:`RoutingError` it raised."""
    arch = ArchParams().with_changes(routed_channel_tracks=tracks)
    graph = build_rr_graph(arch, placement.layout)
    record: Dict[str, object] = {"placement_sha256": _placement_sha(placement)}
    try:
        record.update(_routing_record(route(packed, placement, graph)))
    except RoutingError as error:
        record["error"] = str(error)
    return record


def flow_op_record(
    design: str, timing_driven: bool, thermal_weight: float
) -> Dict[str, object]:
    """The routing record of one perfbench ``flow`` op, routed cold."""
    flow = run_flow(
        vtr_benchmark(design), ArchParams(), use_cache=False,
        timing_driven=timing_driven, thermal_weight=thermal_weight,
    )
    return _routing_record(flow.routing)


def flow_thermal_record(
    design: str, timing_driven: bool, thermal_weight: float
) -> Dict[str, object]:
    """The placement record of one thermal-aware perfbench ``flow`` op,
    placed as ``run_flow`` places it."""
    arch = ArchParams()
    netlist = vtr_benchmark(design)
    packed = pack_netlist(netlist, arch)
    placement = place(
        packed, _layout_for(packed, arch), seed=7,
        net_weights=criticality_weights(netlist) if timing_driven else None,
        thermal_weight=thermal_weight,
    )
    return {
        "placement_sha256": _placement_sha(placement),
        "occupants_sha256": _sha(sorted(
            [list(xy), ids] for xy, ids in placement.occupants.items()
        )),
        "thermal_stats": {
            name: value.hex() if isinstance(value, float) else value
            for name, value in asdict(placement.thermal_stats).items()
        },
    }


def record() -> Dict[str, object]:
    data = {name: fingerprint(_run(name)) for name in FLOWS}
    packed, placement = _tiny_seed7()
    for name, tracks in CONGESTED.items():
        data[name] = congested_record(packed, placement, tracks)
    return data


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_golden_covers_every_flow(golden):
    assert sorted(golden) == sorted([*FLOWS, *CONGESTED])


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_matches_golden(golden, name):
    got = fingerprint(_run(name))
    want = golden[name]
    assert got["placement_sha256"] == want["placement_sha256"]
    assert got["iterations"] == want["iterations"]
    assert got["total_wire_nodes"] == want["total_wire_nodes"]
    assert got["nets"] == want["nets"]
    assert got.get("thermal_stats") == want.get("thermal_stats")


@pytest.fixture(scope="module")
def tiny_seed7():
    return _tiny_seed7()


@pytest.mark.parametrize("name", sorted(CONGESTED))
def test_congested_routing_matches_golden(golden, tiny_seed7, name):
    assert congested_record(*tiny_seed7, CONGESTED[name]) == golden[name]


@pytest.fixture(scope="module")
def flow_routes():
    return json.loads(FLOW_ROUTES_PATH.read_text(encoding="utf-8"))


def test_flow_routes_cover_every_op(flow_routes):
    assert sorted(flow_routes) == sorted(_flow_key(*op) for op in FLOW_OPS)


@pytest.mark.parametrize("design, timing_driven, thermal_weight", FLOW_OPS)
def test_flow_op_routes_match_golden(flow_routes, design, timing_driven,
                                     thermal_weight):
    got = flow_op_record(design, timing_driven, thermal_weight)
    assert got == flow_routes[_flow_key(design, timing_driven, thermal_weight)]


@pytest.fixture(scope="module")
def flow_thermal():
    return json.loads(FLOW_THERMAL_PATH.read_text(encoding="utf-8"))


def test_flow_thermal_covers_every_thermal_op(flow_thermal):
    assert sorted(flow_thermal) == sorted(
        _flow_key(*op) for op in THERMAL_FLOW_OPS
    )


@pytest.mark.parametrize(
    "design, timing_driven, thermal_weight", THERMAL_FLOW_OPS
)
def test_flow_op_thermal_placement_matches_golden(
    flow_thermal, design, timing_driven, thermal_weight
):
    got = flow_thermal_record(design, timing_driven, thermal_weight)
    assert got == flow_thermal[
        _flow_key(design, timing_driven, thermal_weight)
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        path, data = GOLDEN_PATH, record()
    elif sys.argv[1:] == ["--record-flow-routes"]:
        path = FLOW_ROUTES_PATH
        data = {_flow_key(*op): flow_op_record(*op) for op in FLOW_OPS}
    elif sys.argv[1:] == ["--record-flow-thermal"]:
        path = FLOW_THERMAL_PATH
        data = {
            _flow_key(*op): flow_thermal_record(*op) for op in THERMAL_FLOW_OPS
        }
    else:
        sys.exit(
            f"usage: {sys.argv[0]} --record | --record-flow-routes"
            " | --record-flow-thermal"
        )
    with open(path, "w") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
