"""The 19 VTR benchmarks as scaled synthetic specs.

Resource mixes follow the published VTR-7 benchmark characteristics (the
paper: "19 designs of the VTR repository that comprise an average (maximum)
of 17K (89K) 6-input LUTs, 39 (334) BRAMs, and 19 (213) DSP blocks").  LUT
counts are scaled ~1:100 and BRAM/DSP counts ~1:4 so that pure-Python
place-and-route completes in seconds while each benchmark keeps its
character: ``stereovision2``/``raygentop``/``diffeq*`` are DSP-heavy,
``mkPktMerge``/``mkDelayWorker32B``/``LU*PEEng``/``mcml`` use BRAM heavily,
``sha``/``blob_merge`` are pure soft logic.  Relative per-benchmark
guardbanding gains (paper Figs. 6-8) depend on this mix, not on absolute
size — see DESIGN.md.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.memo import Memo
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import Netlist

VTR_BENCHMARKS: Tuple[NetlistSpec, ...] = (
    NetlistSpec("bgm", n_luts=260, n_brams=0, n_dsps=3, depth=11,
                base_activity=0.12, seed=101),
    NetlistSpec("blob_merge", n_luts=64, n_brams=0, n_dsps=0, depth=9,
                base_activity=0.16, seed=102),
    NetlistSpec("boundtop", n_luts=30, n_brams=1, n_dsps=0, depth=7,
                base_activity=0.14, seed=103),
    NetlistSpec("ch_intrinsics", n_luts=12, n_brams=1, n_dsps=0, depth=5,
                base_activity=0.18, seed=104),
    NetlistSpec("diffeq1", n_luts=12, n_brams=0, n_dsps=5, depth=6,
                base_activity=0.20, seed=105),
    NetlistSpec("diffeq2", n_luts=10, n_brams=0, n_dsps=5, depth=6,
                base_activity=0.20, seed=106),
    NetlistSpec("LU32PEEng", n_luts=400, n_brams=24, n_dsps=6, depth=12,
                base_activity=0.10, seed=107),
    NetlistSpec("LU8PEEng", n_luts=230, n_brams=11, n_dsps=2, depth=12,
                base_activity=0.10, seed=108),
    NetlistSpec("mcml", n_luts=470, n_brams=8, n_dsps=7, depth=13,
                base_activity=0.08, seed=109),
    NetlistSpec("mkDelayWorker32B", n_luts=56, n_brams=11, n_dsps=0, depth=6,
                base_activity=0.13, seed=110),
    NetlistSpec("mkPktMerge", n_luts=4, n_brams=4, n_dsps=0, depth=3,
                base_activity=0.22, seed=111),
    NetlistSpec("mkSMAdapter4B", n_luts=25, n_brams=2, n_dsps=0, depth=6,
                base_activity=0.15, seed=112),
    NetlistSpec("or1200", n_luts=31, n_brams=1, n_dsps=1, depth=9,
                base_activity=0.14, seed=113),
    NetlistSpec("raygentop", n_luts=21, n_brams=1, n_dsps=2, depth=7,
                base_activity=0.17, seed=114),
    NetlistSpec("sha", n_luts=27, n_brams=0, n_dsps=0, depth=10,
                base_activity=0.19, seed=115),
    NetlistSpec("stereovision0", n_luts=115, n_brams=0, n_dsps=0, depth=8,
                base_activity=0.15, seed=116),
    NetlistSpec("stereovision1", n_luts=103, n_brams=0, n_dsps=10, depth=8,
                base_activity=0.15, seed=117),
    NetlistSpec("stereovision2", n_luts=200, n_brams=0, n_dsps=22, depth=9,
                base_activity=0.13, seed=118),
    NetlistSpec("stereovision3", n_luts=8, n_brams=0, n_dsps=0, depth=4,
                base_activity=0.20, seed=119),
)

_SPEC_BY_NAME: Dict[str, NetlistSpec] = {s.name: s for s in VTR_BENCHMARKS}
NETLIST_MEMO_SIZE = len(VTR_BENCHMARKS)
"""Netlists kept per process: every suite design, the whole key space."""

_netlists: Memo[Netlist] = Memo("netlists.vtr.memo", NETLIST_MEMO_SIZE)


def vtr_benchmark(name: str) -> Netlist:
    """Generate (and cache) one of the 19 VTR benchmark netlists by name."""
    if name not in _SPEC_BY_NAME:
        known = ", ".join(sorted(_SPEC_BY_NAME))
        raise KeyError(f"unknown VTR benchmark {name!r}; known: {known}")
    return _netlists.get(name, lambda: generate_netlist(_SPEC_BY_NAME[name]))


def benchmark_names() -> Tuple[str, ...]:
    """Benchmark names in the paper's figure order."""
    return tuple(s.name for s in VTR_BENCHMARKS)
