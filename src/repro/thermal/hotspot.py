"""Steady-state grid thermal solver (HotSpot stand-in).

One thermal node per FPGA tile (paper footnote 2: "an FPGA tile comprises a
logic cluster (or other hard-cores) and its neighboring routing
resources").  Energy balance per tile::

    sum_j g_lat (T_j - T_i) + g_vert (T_amb - T_i) + P_i = 0

assembled as a sparse SPD system, LU-factorized **once per (grid,
package) per process** and back-substituted on every call.  Algorithm 1
(line 7) calls :meth:`ThermalSolver.solve` once per iteration with the
updated per-tile power vector, so the factorization is the difference
between an ``O(n^1.5)`` sparse solve per iteration and two triangular
solves — the same trick HotSpot uses for its steady-state grid model.

The conductance depends only on the grid shape and the package (the
lateral coupling is 4-connected and ignores tile type), so every solver
on one grid and package — a looped cell, a batch, a placement proxy —
shares one read-only matrix and one factor (:func:`_grid_factor`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.linalg import SuperLU, splu, spsolve

from repro import observe
from repro.arch.layout import FabricLayout
from repro.memo import memoized
from repro.thermal.package import ThermalPackage


FACTOR_MEMO_SIZE = 32
"""Grid factors a process keeps, one per (grid shape, package): the
VTR-19 suite has 8 shapes, so four packages fit."""


@memoized("thermal.factor_cache", FACTOR_MEMO_SIZE)
def _grid_factor(
    width: int, height: int, package: ThermalPackage
) -> Tuple[csr_matrix, SuperLU]:
    """Read-only conductance matrix and its LU factor for one grid shape
    and package, shared by every solver in the process.

    Tile ``i = y * width + x`` couples to its 4-connected neighbours with
    ``-g_lat`` and carries ``g_vert`` plus ``g_lat`` per neighbour on the
    diagonal.  The diagonal is summed one neighbour at a time, as a
    per-tile loop would, and explicit zeros (``g_lat == 0``) are dropped,
    so the CSR arrays and the factor are the same bit for bit.
    """
    n = width * height
    g_lat = package.g_lateral_w_per_k
    g_vert = package.g_vertical_w_per_k
    with observe.span("thermal.factorize", n_tiles=n):
        grid = np.arange(n).reshape(height, width)
        # Each lateral link (east-west, then north-south) in both directions.
        west, east = grid[:, :-1].ravel(), grid[:, 1:].ravel()
        south, north = grid[:-1, :].ravel(), grid[1:, :].ravel()
        rows = np.concatenate([west, east, south, north])
        cols = np.concatenate([east, west, north, south])
        # diag_by_degree[k] is g_vert with g_lat added k times in turn.
        diag_by_degree = [g_vert]
        for _ in range(4):
            diag_by_degree.append(diag_by_degree[-1] + g_lat)
        degree = np.bincount(rows, minlength=n)
        tiles = grid.ravel()
        data = np.concatenate(
            [np.full(rows.size, -g_lat), np.asarray(diag_by_degree)[degree]]
        )
        matrix = coo_matrix(
            (data, (np.concatenate([rows, tiles]), np.concatenate([cols, tiles]))),
            shape=(n, n),
        )
        conductance = matrix.tocsr()
        conductance.eliminate_zeros()
        factor = splu(conductance.tocsc())
    for array in (conductance.data, conductance.indices, conductance.indptr):
        array.setflags(write=False)
    return conductance, factor


class ThermalSolver:
    """Steady-state solver for one layout/package pair over the shared
    pre-computed factor of its grid."""

    def __init__(
        self,
        layout: FabricLayout,
        package: Optional[ThermalPackage] = None,
    ):
        self.layout = layout
        self.package = package or ThermalPackage()
        self._conductance, self._factor = _grid_factor(
            layout.width, layout.height, self.package
        )

    def _check_power(self, power_w: np.ndarray) -> np.ndarray:
        """Validate an ``(n_cells, n_tiles)`` power batch, one row per cell."""
        n = self.layout.n_tiles
        if power_w.ndim != 2 or power_w.shape[1] != n:
            raise ValueError(
                f"batched power shape {power_w.shape} != (n_cells, {n})"
            )
        if (power_w < 0.0).any():
            bad_rows = np.flatnonzero(np.any(power_w < 0.0, axis=1))
            raise ValueError(
                f"negative tile power in batch rows {bad_rows.tolist()}"
            )
        return power_w

    def _check_ambient(self, t_ambient, n_cells: int) -> np.ndarray:
        """Per-row ambient vector for a batched solve (scalar broadcasts)."""
        amb = np.asarray(t_ambient, dtype=float)
        if amb.ndim == 0:
            return np.full(n_cells, float(amb))
        if amb.shape != (n_cells,):
            raise ValueError(
                f"ambient shape {amb.shape} does not match the "
                f"{n_cells}-row power batch"
            )
        return amb

    def solve(self, power_w: np.ndarray, t_ambient) -> np.ndarray:
        """Steady-state tile temperatures (Celsius) for a power vector (W).

        ``power_w`` is either one ``(n_tiles,)`` vector (a batch of one) or
        a batched ``(n_cells, n_tiles)`` array — the pre-computed LU factor
        back-substitutes all cells in one matrix solve, with each output
        row the solution of that row's system.  For the batched form
        ``t_ambient`` may be a scalar (shared) or an ``(n_cells,)`` vector
        (one ambient per cell).
        """
        observe.counter("thermal.solves").inc()
        power_w = np.asarray(power_w, dtype=float)
        if power_w.ndim == 1:
            return self._solve(power_w[None], t_ambient)[0]
        return self._solve(power_w, t_ambient)

    def _solve(self, power_w: np.ndarray, t_ambient) -> np.ndarray:
        """The factored back-substitution kernel over a power batch."""
        power_w = self._check_power(power_w)
        amb = self._check_ambient(t_ambient, power_w.shape[0])
        rhs = power_w + self.package.g_vertical_w_per_k * amb[:, None]
        # splu solves column-major RHS batches: (n_tiles, n_cells).
        return np.asarray(self._factor.solve(rhs.T)).T

    def solve_unfactored(self, power_w: np.ndarray, t_ambient: float) -> np.ndarray:
        """Seed reference path: full ``spsolve`` from scratch every call.

        Kept for the equivalence tests and the hot-loop benchmark's
        baseline (see :mod:`repro.core.reference`).  Single-vector only —
        the batched layout exists for the factored fast path.
        """
        power_w = np.asarray(power_w, dtype=float)
        if power_w.ndim != 1:
            raise ValueError(
                "solve_unfactored handles a single (n_tiles,) power vector"
            )
        power_w = self._check_power(power_w[None])[0]
        rhs = power_w + self.package.g_vertical_w_per_k * t_ambient
        return np.asarray(spsolve(self._conductance, rhs))
