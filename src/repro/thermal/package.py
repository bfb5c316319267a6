"""Thermal package parameters.

The grid model couples each tile vertically to the ambient (through the
die, heat spreader, sink and interface layers, lumped into one conductance)
and laterally to its grid neighbours (silicon conduction).

Defaults are calibrated to the operating points the paper reports:

- for the (scaled) VTR designs at `Tamb = 25 C`, the die settles ~2 C above
  ambient ("due to relatively low switching rate, the temperature converged
  after ~2 C increase", Sec. IV-B);
- high-activity hard-block regions can sit several degrees above the rest of
  the die (on-chip variation "can reach above 20 C" on large devices,
  Sec. II — proportionally smaller on our 1:100-scaled designs).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ThermalPackage:
    """Lumped package description for the grid solver."""

    g_vertical_w_per_k: float = 3.0e-5
    """Tile-to-ambient conductance (die + spreader + sink share), W/K."""

    g_lateral_w_per_k: float = 2.0e-4
    """Tile-to-neighbour lateral conductance through the silicon, W/K."""

    def __post_init__(self) -> None:
        # Written so that NaN fails too: every comparison with it is false.
        if not (
            0.0 < self.g_vertical_w_per_k < float("inf")
            and 0.0 <= self.g_lateral_w_per_k < float("inf")
        ):
            raise ValueError(
                "conductances must be finite, vertical > 0 and lateral >= 0"
            )
