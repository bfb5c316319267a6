"""Benchmark netlists: representation, synthetic generator, VTR-19 suite.

The paper maps the 19 VTR benchmarks (avg 17K / max 89K 6-LUTs).  We use
synthetic technology-mapped netlists that preserve each benchmark's
published resource *mix* (LUT/BRAM/DSP ratios, logic depth, activity
character) at ~1:100 scale so the pure-Python place-and-route completes in
seconds — see DESIGN.md, "Scale note".
"""

from repro.netlists.netlist import Block, BlockType, Net, Netlist
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark

__all__ = [
    "Block",
    "BlockType",
    "Net",
    "Netlist",
    "NetlistSpec",
    "VTR_BENCHMARKS",
    "generate_netlist",
    "vtr_benchmark",
]
