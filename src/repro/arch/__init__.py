"""Island-style FPGA architecture model (paper Fig. 4, Table I).

- :mod:`repro.arch.params` — architectural parameters (K, N, channel width,
  wire segment length, mux sizes, BRAM geometry).
- :mod:`repro.arch.layout` — the device floorplan: a grid of CLB tiles with
  embedded BRAM and DSP columns, as in commercial devices.
- :mod:`repro.arch.rrgraph` — the routing-resource graph the PathFinder
  router works on.
"""

from repro.arch.layout import FabricLayout, Tile, TileType
from repro.arch.params import ArchParams
from repro.arch.rrgraph import RRGraph, RRNodeType, build_rr_graph

__all__ = [
    "ArchParams",
    "FabricLayout",
    "RRGraph",
    "RRNodeType",
    "Tile",
    "TileType",
    "build_rr_graph",
]
