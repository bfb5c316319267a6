"""Thermal proxy cost for the simulated-annealing placer.

The guardband flow (Algorithm 1) treats placement as fixed: the annealer
in :mod:`repro.cad.place` minimises (weighted) half-perimeter wirelength
and the converged temperature map is whatever falls out.  This module
closes that loop.  It gives the annealer an *incremental thermal proxy
cost* — a per-tile power-density map derived from cluster switching
activity (:mod:`repro.activity`), spread by a local kernel that mimics
lateral heat conduction — so a move's thermal ΔCost is O(kernel
neighborhood), not a full thermal solve.

The proxy is periodically **recalibrated against the real solver**: one
:class:`~repro.thermal.hotspot.ThermalSolver` is built per anneal (its
``splu`` factorization is reused across every calibration solve) and the
proxy's spread field is fitted to the solver's temperature-rise field by
a least-squares gain ``gamma``.  When the freshly-fitted gain drifts
from the held one by more than ``drift_tolerance``, γ is refitted; when
even the best-fit gain leaves a *shape* mismatch above
``shape_tolerance``, the proxy is declared inadequate and the anneal
fails loudly (:class:`ThermalPlaceError`) instead of optimising a
fiction.

Density units are relative (the fit absorbs the overall scale): what the
objective needs is the *distribution* of heat, which is
corner-independent — the same placement is reused across fabric corners,
exactly as the flow cache assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import observe
from repro.activity.ace import ActivityEstimate
from repro.arch.layout import FabricLayout
from repro.cad.pack import PackedNetlist
from repro.netlists.netlist import BlockType

KERNEL_RADIUS = 2
"""Spreading-kernel half-width in tiles.  2 covers the 5x5 neighborhood
that dominates a tile's lateral conduction footprint on the 4-connected
thermal grid."""

KERNEL_DECAY_TILES = 1.3
"""e-folding distance (tiles) of the exponential spreading kernel."""

DRIFT_TOLERANCE = 0.25
"""Relative change between the held gain γ and a freshly least-squares
fitted one that triggers a refit — i.e. how stale the proxy's Celsius
scaling may get as the density distribution evolves."""

SHAPE_TOLERANCE = 0.75
"""Relative inf-norm residual the *best-fit* gain must leave between the
proxy field and the solver rise field; a larger residual means the
kernel cannot represent the conduction behaviour and the anneal must not
trust the proxy objective."""

_BLOCK_DENSITY_WEIGHT = {
    BlockType.LUT: 1.0,
    BlockType.FF: 0.35,
    BlockType.BRAM: 4.0,
    BlockType.DSP: 8.0,
    BlockType.INPUT: 0.25,
    BlockType.OUTPUT: 0.25,
}
"""Relative dynamic-power weight per block kind (one active LUT = 1.0).

Mirrors the ordering of the characterized per-instance dynamic powers in
:mod:`repro.power.model` (hard blocks dominate, registers are cheap)
without needing a characterized fabric at placement time — placement is
shared across fabric corners, so only the *relative* distribution can
matter here."""

STATIC_DENSITY_PER_RESOURCE = 0.002
"""Baseline density per leaky resource of a tile's inventory (relative
units).  Leakage accrues on the whole inventory whether used or not, so
every tile radiates a little; the constant field does not steer moves
(it is placement-invariant) but keeps calibration against the real
solver honest near the die edge."""


class ThermalPlaceError(RuntimeError):
    """The thermal proxy cannot track the real solver (or was corrupted).

    Raised instead of silently annealing a stale or unrepresentative
    thermal objective."""


@dataclass
class ThermalPlaceStats:
    """Telemetry of one thermal-aware anneal, attached to the Placement."""

    thermal_weight: float
    gamma: float
    """Final proxy→temperature-rise gain fitted against the solver."""
    n_calibrations: int
    """Real thermal solves spent checking the proxy."""
    n_recalibrations: int
    """How many of those checks refitted γ (drift above tolerance)."""
    n_proxy_evals: int
    """Incremental thermal ΔCost evaluations (one per proposed move)."""
    max_drift: float
    """Worst pre-refit relative drift observed across the anneal."""
    final_drift: float
    """Relative drift at the last calibration (post-refit if one ran)."""
    final_shape_error: float
    """Residual of the final γ fit (must be <= SHAPE_TOLERANCE)."""
    proxy_cost: float
    """Final weighted thermal cost term of the blended objective."""


def cluster_densities(
    packed: PackedNetlist, activity: ActivityEstimate
) -> Dict[int, float]:
    """Relative power density of every cluster from its signal activity.

    A cluster's density is the activity-weighted sum of its blocks'
    :data:`_BLOCK_DENSITY_WEIGHT` — the same "users x activity" quantity
    :class:`repro.power.model.PowerModel` charges dynamically, reduced to
    corner-independent relative units.
    """
    densities: Dict[int, float] = {}
    alpha = activity.alpha
    for cluster in packed.clusters:
        total = 0.0
        for block_id in cluster.block_ids:
            block = packed.netlist.blocks[block_id]
            if block.output_nets:
                a = float(np.mean([alpha[n] for n in block.output_nets]))
            elif block.input_nets:
                a = float(np.mean([alpha[n] for n in block.input_nets]))
            else:
                a = 0.0
            total += a * _BLOCK_DENSITY_WEIGHT.get(block.type, 0.0)
        densities[cluster.id] = total
    return densities


def static_tile_density(layout: FabricLayout) -> np.ndarray:
    """Placement-invariant per-tile baseline from the leaky inventory."""
    # Imported lazily: repro.power.model imports repro.cad.flow, which
    # imports the placer, which imports this module — a cycle at import
    # time but not at call time.
    from repro.power.model import tile_inventory

    base = np.zeros(layout.n_tiles)
    for tile in layout.tiles():
        counts = tile_inventory(layout.arch, tile.type)
        base[layout.tile_index(tile.x, tile.y)] = (
            STATIC_DENSITY_PER_RESOURCE * float(sum(counts.values()))
        )
    return base


def density_vector(
    packed: PackedNetlist,
    location: Dict[int, Tuple[int, int]],
    layout: FabricLayout,
    activity: ActivityEstimate,
    include_static: bool = True,
) -> np.ndarray:
    """Per-tile relative power density of one placement (for reporting)."""
    densities = cluster_densities(packed, activity)
    out = static_tile_density(layout) if include_static else np.zeros(layout.n_tiles)
    for cluster_id, (x, y) in location.items():
        out[layout.tile_index(x, y)] += densities[cluster_id]
    return out


PLANS_PER_TILE = 25
"""Footprint plans the proxy keeps per tile of the die.  A move window
of radius 2 reaches 24 other tiles, so the anneal's late levels find
every plan they use in the memo, and the memo's size is bounded by the
die, not by the number of moves."""

_Plan = Tuple[Tuple[int, int, int], ...]
"""A footprint plan, ``(key, ia, ib)`` per touched tile: see
:meth:`ThermalProxy._plan`."""


def _kernel_reach(
    kernel: List[Tuple[int, int, float]], width: int, height: int
) -> List[List[int]]:
    """Per flat tile index, the flat index each kernel entry lands on
    (``-1`` where it falls off the die), in kernel order."""
    reach: List[List[int]] = []
    for y in range(height):
        for x in range(width):
            row = []
            for dx, dy, _kw in kernel:
                xa, ya = x + dx, y + dy
                inside = 0 <= xa < width and 0 <= ya < height
                row.append(ya * width + xa if inside else -1)
            reach.append(row)
    return reach


def _spreading_kernel(
    radius: int, decay: float
) -> List[Tuple[int, int, float]]:
    """(dx, dy, weight) offsets of the exponential conduction kernel."""
    kernel: List[Tuple[int, int, float]] = []
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            w = math.exp(-math.hypot(dx, dy) / decay)
            kernel.append((dx, dy, w))
    total = sum(w for _, _, w in kernel)
    return [(dx, dy, w / total) for dx, dy, w in kernel]


class ThermalProxy:
    """Incrementally-maintained thermal cost of a placement in progress.

    State:

    - ``density`` — per-tile relative power density (static inventory
      baseline + the clusters currently on the tile), one flat list of
      floats in row-major tile order;
    - ``spread`` — the kernel-convolved density field (the proxy for the
      temperature-rise *shape*), one flat list of floats in row-major
      tile order (``y * width + x``, the order of ``ndarray.ravel``);
    - ``raw_cost`` — ``sum(spread**2)``, a hotspot-concentration penalty
      (uniform heat minimises it at fixed total power);
    - ``gamma`` — the solver-fitted gain mapping ``spread`` to Celsius
      rise;
    - ``weight`` — the blend factor normalising the thermal term against
      the anneal's initial wirelength cost.

    Moving a cluster changes ``density`` at two tiles and ``spread``
    within the kernel footprint of each, so :meth:`price` is O(kernel)
    per proposed move.  It reads the footprint from a plan memoized per
    (from-tile, to-tile) pair (:meth:`_plan`); :meth:`commit` adds the
    deltas the last :meth:`price` computed.  The per-move paths read and
    write ``density`` and ``spread`` as plain Python floats; calibration
    and the integrity check build the arrays they need from them.
    """

    def __init__(
        self,
        layout: FabricLayout,
        packed: PackedNetlist,
        activity: ActivityEstimate,
        location: Dict[int, Tuple[int, int]],
        *,
        kernel_radius: int = KERNEL_RADIUS,
        kernel_decay: float = KERNEL_DECAY_TILES,
        drift_tolerance: float = DRIFT_TOLERANCE,
        shape_tolerance: float = SHAPE_TOLERANCE,
    ) -> None:
        self.layout = layout
        self.drift_tolerance = drift_tolerance
        self.shape_tolerance = shape_tolerance
        self._kernel = _spreading_kernel(kernel_radius, kernel_decay)
        self._radius = kernel_radius
        self._reach = _kernel_reach(self._kernel, layout.width, layout.height)
        self._cluster_density = cluster_densities(packed, activity)
        # Each kernel entry's share of a cluster's density, in kernel
        # order, then 0.0 at index len(kernel), the share a plan reads
        # where no kernel entry lands; an idle cluster (exact zero) has
        # none.
        self._shares = {
            cluster_id: [kw * d for _dx, _dy, kw in self._kernel] + [0.0]
            for cluster_id, d in self._cluster_density.items()
            if d != 0.0  # repro-lint: ignore[float-equality] idle cluster
        }
        self._n_tiles = layout.n_tiles
        self._plans: Dict[int, _Plan] = {}
        """Footprint plans keyed ``a * n_tiles + b`` (:meth:`_plan`); they
        die with the proxy when :func:`place` returns."""

        density = static_tile_density(layout)
        for cluster_id, (x, y) in location.items():
            density[y * layout.width + x] += self._cluster_density[cluster_id]
        spread = self._full_spread(density)
        self.raw_cost = float(np.sum(spread**2))
        self._density: List[float] = density.tolist()
        self._spread: List[float] = spread.ravel().tolist()
        self._priced: tuple = ((), [], 0.0, None, None, 0, 0)
        """``(plan, deltas, raw_delta, cluster, partner, a, b)`` of the
        last :meth:`price`, which :meth:`commit` applies."""

        self.gamma = 0.0
        self.weight = 0.0
        self.n_calibrations = 0
        self.n_recalibrations = 0
        self.n_proxy_evals = 0
        self.max_drift = 0.0
        self.final_drift = 0.0
        self.final_shape_error = 0.0
        # One solver per anneal: the splu factorization is paid once and
        # back-substituted by every calibration solve.
        self._solver: Optional[object] = None

    # -- construction helpers ---------------------------------------------

    def _full_spread(
        self, density: "np.ndarray | List[float]"
    ) -> np.ndarray:
        """Kernel-convolve a flat density field (zero-padded edges)."""
        h, w = self.layout.height, self.layout.width
        r = self._radius
        padded = np.zeros((h + 2 * r, w + 2 * r))
        padded[r : r + h, r : r + w] = np.reshape(density, (h, w))
        spread = np.zeros((h, w))
        for dx, dy, kw in self._kernel:
            spread += kw * padded[r + dy : r + dy + h, r + dx : r + dx + w]
        return spread

    # -- incremental cost ---------------------------------------------------

    def _plan(self, a: int, b: int) -> _Plan:
        """Build and memoize the footprint plan of a move from flat tile
        ``a`` to ``b``.

        Walking the kernel in order, each entry's tile under ``a`` loses
        that entry's share of the cluster's density before its tile
        under ``b`` gains one.  A plan lists the touched tiles in the
        order that walk first touches them, each as ``(key, ia, ib)``:
        its flat index and the kernel index landing there from ``a`` and
        from ``b``, ``len(kernel)`` where none does.

        The memo keeps at most :data:`PLANS_PER_TILE` plans a tile and
        drops its oldest plan when full.
        """
        plans = self._plans
        if len(plans) >= PLANS_PER_TILE * self._n_tiles:
            del plans[next(iter(plans))]
        none = len(self._kernel)
        slots: Dict[int, List[int]] = {}
        for j, (ka, kb) in enumerate(zip(self._reach[a], self._reach[b])):
            if ka >= 0:
                slots.setdefault(ka, [none, none])[0] = j
            if kb >= 0:
                slots.setdefault(kb, [none, none])[1] = j
        plan = plans[a * self._n_tiles + b] = tuple(
            (k, ia, ib) for k, (ia, ib) in slots.items()
        )
        return plan

    def price(
        self, cluster_id: int, partner: Optional[int], a: int, b: int
    ) -> float:
        """Weighted thermal ΔCost of moving ``cluster_id`` from flat tile
        ``a`` to ``b``, and ``partner`` (when not ``None``) from ``b`` to
        ``a``.

        Every spread delta is the double a per-move walk of both
        footprints would sum into a fresh ``0.0``, in that walk's order:

        - one cluster: ``share[ib] - share[ia]`` at each key, which
          equals both ``(0.0 - s) + s'`` and ``(0.0 + s') - s`` (and
          ``0.0 - s`` or ``0.0 + s'`` where one side is ``0.0``);
        - a swap: the partner's loss and gain added to that, in the
          order of its own walk from ``b`` to ``a`` (the loss first when
          ``ib <= ia``), after all of the cluster's;
        - a swap whose cluster is idle walks only the partner, so it
          reads the partner's plan ``(b, a)``.

        The raw delta is the left fold ``raw += d * (2.0 * s + d)`` over
        the plan's keys, so it matches that walk bit for bit.
        """
        self.n_proxy_evals += 1
        own, other = self._shares.get(cluster_id), self._shares.get(partner)
        start, end = a, b
        if own is None:
            # An idle cluster walks nothing: what is left is the
            # partner's walk from b to a, if it has one.
            own, other, start, end = other, None, b, a
        plan: _Plan = ()
        deltas: List[float] = []
        append = deltas.append
        raw = 0.0
        if own is not None:
            plan = (
                self._plans.get(start * self._n_tiles + end)
                or self._plan(start, end)
            )
            spread = self._spread
            if other is None:
                for k, ia, ib in plan:
                    d = own[ib] - own[ia]
                    append(d)
                    raw += d * (2.0 * spread[k] + d)
            else:
                for k, ia, ib in plan:
                    if ib <= ia:
                        d = (own[ib] - own[ia] - other[ib]) + other[ia]
                    else:
                        d = (own[ib] - own[ia] + other[ia]) - other[ib]
                    append(d)
                    raw += d * (2.0 * spread[k] + d)
        self._priced = (plan, deltas, raw, cluster_id, partner, a, b)
        return self.weight * raw

    def commit(self) -> None:
        """Commit the move the last :meth:`price` priced.

        The placer commits only right after pricing, so the spread the
        raw delta was folded over is still the spread here.
        """
        plan, deltas, raw, cluster_id, partner, a, b = self._priced
        spread = self._spread
        for (k, _ia, _ib), d in zip(plan, deltas):
            spread[k] += d
        density = self._density
        d = self._cluster_density[cluster_id]
        density[a] -= d
        density[b] += d
        if partner is not None:
            d = self._cluster_density[partner]
            density[b] -= d
            density[a] += d
        self.raw_cost += raw

    def weighted_cost(self) -> float:
        """The thermal term of the blended anneal objective."""
        return self.weight * self.raw_cost

    def full_raw_cost(self) -> float:
        """Recompute ``sum(spread**2)`` from scratch (integrity guard)."""
        return float(np.sum(self._full_spread(self._density) ** 2))

    # -- calibration ---------------------------------------------------------

    def _solve_rise(self) -> np.ndarray:
        """Real steady-state rise field for the current density map.

        The solver is linear, so solving at ambient 0 with the relative
        density as the power vector yields the rise shape directly; γ
        absorbs the unit mismatch.
        """
        from repro.thermal.hotspot import ThermalSolver

        if self._solver is None:
            self._solver = ThermalSolver(self.layout)
        solver: ThermalSolver = self._solver  # type: ignore[assignment]
        return np.asarray(solver.solve(np.array(self._density), 0.0))

    def calibrate(self, force: bool = False) -> float:
        """Check the proxy against the real solver; refit γ on drift.

        Drift is the relative change between the held γ and a fresh
        least-squares fit — how stale the proxy's Celsius scaling has
        become as the density distribution evolved.  Returns that drift.
        Raises :class:`ThermalPlaceError` when even the best-fit gain
        leaves a shape residual above ``shape_tolerance`` — the kernel
        cannot represent this die's conduction and the proxy objective
        must not be annealed on.
        """
        with observe.span("place.thermal.calibrate", force=force):
            rise = self._solve_rise()
            s = np.array(self._spread)
            scale = float(np.max(np.abs(rise)))
            self.n_calibrations += 1
            if scale <= 0.0:
                # A zero-power die has a flat (zero) rise field; the
                # proxy is trivially exact and there is nothing to fit.
                self.final_drift = 0.0
                self.final_shape_error = 0.0
                return 0.0
            ss = float(s @ s)
            gamma_fit = float(s @ rise / ss) if ss > 0.0 else 0.0
            drift = abs(gamma_fit - self.gamma) / max(abs(gamma_fit), 1e-30)
            if not force:
                # The forced initial fit starts from γ=0 (drift is
                # trivially 1); only track drift of live calibrations.
                self.max_drift = max(self.max_drift, drift)
            refit = force or drift > self.drift_tolerance
            if refit:
                self.gamma = gamma_fit
                self.n_recalibrations += 1
                observe.counter("place.thermal.recalibrations").inc()
            shape_error = float(
                np.max(np.abs(rise - gamma_fit * s)) / scale
            )
            self.final_shape_error = shape_error
            self.final_drift = drift
            observe.event(
                "place.thermal.drift",
                drift=drift,
                shape_error=shape_error,
                gamma=self.gamma,
                refit=refit,
            )
            if shape_error > self.shape_tolerance:
                raise ThermalPlaceError(
                    f"thermal proxy cannot track the solver: residual "
                    f"{shape_error:.3f} exceeds shape tolerance "
                    f"{self.shape_tolerance:.3f} even at the best-fit "
                    f"gain ({gamma_fit:.4g}); widen the spreading "
                    "kernel or disable thermal_weight for this design"
                )
            return drift

    def stats(self, thermal_weight: float) -> ThermalPlaceStats:
        observe.counter("place.thermal.proxy_evals").inc(self.n_proxy_evals)
        return ThermalPlaceStats(
            thermal_weight=thermal_weight,
            gamma=self.gamma,
            n_calibrations=self.n_calibrations,
            n_recalibrations=self.n_recalibrations,
            n_proxy_evals=self.n_proxy_evals,
            max_drift=self.max_drift,
            final_drift=self.final_drift,
            final_shape_error=self.final_shape_error,
            proxy_cost=self.weighted_cost(),
        )
