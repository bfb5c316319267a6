"""Temperature-grade portfolio planning (extension of paper Sec. III-C).

The paper proposes defining new FPGA *temperature grades* — devices of the
same architecture sized for different thermal corners — the way vendors
already ship speed grades.  This module answers the vendor-side question:
given that we can afford ``k`` grades, which design corners should they use
and which part of the supported junction range should each serve?

We partition ``[t_min, t_max]`` into contiguous bands and assign each band
the candidate corner minimizing Eq. 1 expected delay over that band,
choosing the partition that minimizes the range-wide average expected
delay.  Solved exactly by dynamic programming over a discrete grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.params import ArchParams
from repro.coffe.fabric import build_fabric


@dataclass(frozen=True)
class GradeBand:
    """One temperature grade: the band it serves and its design corner."""

    t_low: float
    t_high: float
    corner_celsius: float
    expected_delay_s: float


@dataclass
class GradePlan:
    """A full grade portfolio over the supported range."""

    bands: Tuple[GradeBand, ...]
    average_delay_s: float
    """Expected delay averaged over the whole range (uniform T)."""


def plan_temperature_grades(
    n_grades: int,
    t_min: float = 0.0,
    t_max: float = 100.0,
    candidates: Sequence[float] = (0.0, 25.0, 50.0, 70.0, 85.0, 100.0),
    arch: Optional[ArchParams] = None,
    component: str = "cp",
    grid_step: float = 5.0,
) -> GradePlan:
    """Optimal ``n_grades``-way partition of the junction range.

    Returns the bands, their corners and the achieved range-average delay.
    With ``n_grades=1`` this degenerates to the paper's single-corner
    selection (Eq. 1); more grades monotonically reduce the average delay.
    """
    if n_grades < 1:
        raise ValueError(f"need at least one grade, got {n_grades}")
    if t_max <= t_min:
        raise ValueError(f"bad range [{t_min}, {t_max}]")
    if not candidates:
        raise ValueError("need at least one candidate corner")
    arch = arch or ArchParams()

    # Discretize the range; integrate delay per (segment, corner) once.
    edges = np.arange(t_min, t_max + grid_step / 2, grid_step)
    if edges[-1] < t_max:
        edges = np.append(edges, t_max)
    n_seg = len(edges) - 1
    n_grades = min(n_grades, n_seg)

    # seg_cost[c][i] = integral of delay over segment i for corner c.
    seg_cost: Dict[float, np.ndarray] = {}
    for corner in candidates:
        fabric = build_fabric(float(corner), arch)
        costs = np.empty(n_seg)
        for i in range(n_seg):
            grid = np.linspace(edges[i], edges[i + 1], 9)
            if component == "cp":
                delays = np.asarray(fabric.cp_delay_s(grid))
            else:
                delays = np.asarray(fabric.delay_s(component, grid))
            trapezoid = getattr(np, "trapezoid", None) or np.trapz
            costs[i] = float(trapezoid(delays, grid))
        seg_cost[float(corner)] = costs

    # band_cost[i][j] = best (cost, corner) covering segments i..j-1.
    prefix = {c: np.concatenate(([0.0], np.cumsum(k))) for c, k in seg_cost.items()}

    def best_band(i: int, j: int) -> Tuple[float, float]:
        options = [(prefix[c][j] - prefix[c][i], c) for c in prefix]
        return min(options)

    INF = float("inf")
    # dp[g][j]: minimal cost of covering segments 0..j-1 with g bands.
    dp = [[INF] * (n_seg + 1) for _ in range(n_grades + 1)]
    cut: List[List[Optional[Tuple[int, float]]]] = [
        [None] * (n_seg + 1) for _ in range(n_grades + 1)
    ]
    dp[0][0] = 0.0
    for g in range(1, n_grades + 1):
        for j in range(1, n_seg + 1):
            for i in range(g - 1, j):
                if dp[g - 1][i] == INF:
                    continue
                cost, corner = best_band(i, j)
                total = dp[g - 1][i] + cost
                if total < dp[g][j]:
                    dp[g][j] = total
                    cut[g][j] = (i, corner)

    best_g = min(range(1, n_grades + 1), key=lambda g: dp[g][n_seg])
    bands: List[GradeBand] = []
    j = n_seg
    g = best_g
    while j > 0:
        entry = cut[g][j]
        assert entry is not None
        i, corner = entry
        width = edges[j] - edges[i]
        cost, _ = best_band(i, j)
        bands.append(
            GradeBand(
                t_low=float(edges[i]),
                t_high=float(edges[j]),
                corner_celsius=corner,
                expected_delay_s=cost / width,
            )
        )
        j, g = i, g - 1
    bands.reverse()
    return GradePlan(
        bands=tuple(bands),
        average_delay_s=dp[best_g][n_seg] / (t_max - t_min),
    )
