"""Simulated-annealing placement (VPR-style).

Wirelength-driven anneal over cluster locations: half-perimeter wirelength
cost, adaptive temperature schedule driven by the acceptance rate, and a
shrinking range window.  Deterministic for a given seed.

With ``thermal_weight > 0`` the objective blends in the incremental
thermal proxy of :mod:`repro.cad.thermal_place`, periodically calibrated
against the real thermal solver; ``thermal_weight=0`` takes exactly the
legacy wirelength-only code path (bit-identical placements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.arch.layout import FabricLayout, TileType
from repro.cad.pack import PackedNetlist
from repro.cad.thermal_place import ThermalPlaceStats, ThermalProxy

INTEGRITY_CHECK_INTERVAL = 8
"""Temperature levels between full-cost integrity recomputations."""

_INTEGRITY_REL_TOL = 1e-6
"""Allowed relative disagreement between the incrementally-maintained
cost and a from-scratch recomputation before the anneal fails loudly."""


class PlacementIntegrityError(RuntimeError):
    """Incrementally-maintained anneal cost drifted from the true cost.

    Raised instead of silently annealing a stale objective; indicates a
    bug in the incremental bookkeeping (HPWL, cached net costs or thermal
    proxy), never a property of the design."""


class _Draws:
    """The anneal's ``integers``/``random`` draws, replayed exactly from
    the raw words of a :class:`numpy.random.PCG64` generator.

    A scalar ``rng.integers`` call costs about 2 µs, nearly all of it
    numpy call overhead; the arithmetic behind it is a few integer
    operations.  This class repeats that arithmetic on plain Python ints
    and returns the values numpy would, in the same order:

    - ``integers(low, high)`` follows ``Generator.integers`` for int64
      spans up to 2**32: no draw for a span of 1, otherwise Lemire's
      multiply-and-reject on 32-bit half-words, low half of a 64-bit word
      first, the high half kept for the next draw (PCG64's
      ``has_uint32``/``uinteger`` buffer, seeded from the generator's
      state so a half-word left by ``shuffle`` is used first).
    - ``random()`` takes one whole 64-bit word, ``(w >> 11) * 2**-53``,
      and leaves the half-word buffer alone.

    Words are pulled 1024 at a time, ahead of use.  That leaves the
    wrapped generator past the draws, which is harmless here: the
    placer's generator is local to :func:`place` and dies when it
    returns.  ``tests/test_place_draws.py`` pins every value to numpy's.
    """

    __slots__ = ("_bit_generator", "_words", "_next", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"draw replay needs a PCG64 bit generator, got "
                f"{type(bit_generator).__name__}"
            )
        state = bit_generator.state
        self._bit_generator = bit_generator
        self._words: List[int] = []
        self._next = 0
        self._half = state["uinteger"] if state["has_uint32"] else -1
        """The buffered high half-word, or -1 when none is buffered."""

    def _word(self) -> int:
        i = self._next
        if i == len(self._words):
            self._words = self._bit_generator.random_raw(1024).tolist()
            i = 0
        self._next = i + 1
        return self._words[i]

    def _uint32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._word()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int) -> int:
        """``int(Generator.integers(low, high))``: one value in [low, high)."""
        span = high - low
        if not 1 < span <= 0x100000000:
            if span == 1:
                return low
            raise ValueError(
                f"draw span must be in [1, 2**32], got [{low}, {high})"
            )
        # numpy's Lemire step with rng = span - 1.  A span of 2**32 never
        # rejects and returns the half-word as is, as numpy's unscaled
        # path for that span does.  The first half-word is _uint32()
        # inlined: nearly every draw takes only that one.
        half = self._half
        if half >= 0:
            self._half = -1
            m = half * span
        else:
            word = self._word()
            self._half = word >> 32
            m = (word & 0xFFFFFFFF) * span
        leftover = m & 0xFFFFFFFF
        if leftover < span:
            threshold = (0xFFFFFFFF - (span - 1)) % span
            while leftover < threshold:
                m = self._uint32() * span
                leftover = m & 0xFFFFFFFF
        return low + (m >> 32)

    def random(self) -> float:
        """``Generator.random()``: one float in [0, 1)."""
        return (self._word() >> 11) * 2.0**-53


@dataclass
class Placement:
    """Cluster locations plus per-tile occupancy."""

    layout: FabricLayout
    location: Dict[int, Tuple[int, int]]
    """cluster id -> (x, y)."""
    occupants: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    thermal_stats: Optional[ThermalPlaceStats] = None
    """Proxy/calibration telemetry when thermal-aware (``None`` otherwise)."""

    def validate(self, packed: PackedNetlist) -> None:
        for cluster in packed.clusters:
            if cluster.id not in self.location:
                raise ValueError(f"cluster {cluster.id} not placed")
            x, y = self.location[cluster.id]
            tile = self.layout.tile(x, y)
            if tile.type != cluster.type:
                raise ValueError(
                    f"cluster {cluster.id} ({cluster.type.value}) placed on "
                    f"{tile.type.value} tile ({x}, {y})"
                )
        for key, occupants in self.occupants.items():
            cap = self.layout.tile(*key).capacity
            if len(occupants) > cap:
                raise ValueError(
                    f"tile {key} over capacity: {len(occupants)} > {cap}"
                )


def place(
    packed: PackedNetlist,
    layout: FabricLayout,
    seed: int = 7,
    effort: float = 1.0,
    net_weights: Optional[Dict[int, float]] = None,
    thermal_weight: float = 0.0,
    activity: Optional[ActivityEstimate] = None,
) -> Placement:
    """Anneal the clusters of ``packed`` onto ``layout``.

    ``effort`` scales the number of moves per temperature (1.0 is the
    VPR-like default; tests use less).  ``net_weights`` (netlist net id ->
    weight) enables timing-driven placement: weighted half-perimeter
    wirelength pulls timing-critical nets short at the expense of slack-rich
    ones (see :mod:`repro.cad.criticality`).

    ``thermal_weight`` blends the incremental thermal proxy of
    :mod:`repro.cad.thermal_place` into the objective: the thermal term
    is normalised so that at weight ``w`` it contributes ``w`` times the
    initial wirelength cost.  The proxy is calibrated against the real
    thermal solver once per temperature level.  ``activity`` supplies the
    per-net switching activities the proxy's density map is built from
    (estimated from the netlist when omitted).  ``thermal_weight=0``
    bypasses the proxy entirely and is bit-identical to the legacy
    wirelength-only placer.
    """
    if not (math.isfinite(effort) and effort >= 0.0):
        raise ValueError(f"effort must be finite and >= 0, got {effort}")
    if not (math.isfinite(thermal_weight) and thermal_weight >= 0.0):
        raise ValueError(
            f"thermal_weight must be finite and >= 0, got {thermal_weight}"
        )
    rng = np.random.default_rng(seed)
    placement = _initial_placement(packed, layout, rng)
    nets = _placement_nets(packed, net_weights)
    if not nets or len(packed.clusters) <= 1:
        return placement
    draws = _Draws(rng)
    tiles = [(tile.type, tile.capacity) for tile in layout.tiles()]

    # net_cost[i] is _net_hpwl(nets[i], location), kept in step with the
    # placement by _commit (VPR's net_cost[] array).
    net_cost = [_net_hpwl(net, placement.location) for net in nets]
    hpwl = sum(net_cost)
    nets_of_cluster: Dict[int, List[int]] = {}
    for net_index, (_weight, clusters) in enumerate(nets):
        for cluster_id in clusters:
            nets_of_cluster.setdefault(cluster_id, []).append(net_index)

    proxy: Optional[ThermalProxy] = None
    if thermal_weight > 0.0:
        if activity is None:
            activity = estimate_activity(packed.netlist)
        proxy = ThermalProxy(layout, packed, activity, placement.location)
        proxy.calibrate(force=True)
        # Normalise: at weight w the thermal term starts at w x the
        # initial wirelength cost, so w is a dimensionless blend knob.
        proxy.weight = thermal_weight * hpwl / max(proxy.raw_cost, 1e-12)

    movable = [c.id for c in packed.clusters]
    n = len(movable)
    moves_per_t = max(16, int(effort * 5 * n**1.33))
    # Initial temperature: VPR heuristic — std-dev of a random-move sample.
    # The sampling moves are applied (as VPR does); their summed HPWL delta
    # keeps the tracked hpwl true for the integrity guard.
    hpwl0 = hpwl
    t, sampled_delta = _initial_temperature(
        packed, layout, tiles, placement, nets, nets_of_cluster, net_cost,
        draws, proxy,
    )
    hpwl += sampled_delta
    # Termination-threshold baseline: the legacy placer seeded ``cost``
    # before the sampling moves and never resynced, so thermal_weight=0
    # must keep that exact baseline to stay bit-identical.
    cost = hpwl0 if proxy is None else hpwl + proxy.weighted_cost()
    range_limit = float(max(layout.width, layout.height))

    levels = 0
    while t > 0.002 * max(cost, 1e-9) / max(len(nets), 1):
        accepted = 0
        limit = max(1, int(range_limit))
        for _ in range(moves_per_t):
            delta, hpwl_delta, move = _propose(
                packed, layout, tiles, placement, nets, nets_of_cluster,
                net_cost, draws, limit, proxy,
            )
            if move is None:
                continue
            if delta <= 0 or draws.random() < math.exp(-delta / max(t, 1e-30)):
                _commit(placement, net_cost, proxy, move)
                cost += delta
                hpwl += hpwl_delta
                accepted += 1
        rate = accepted / moves_per_t
        # VPR schedule: cool slowly in the productive 15-80 % band.
        if rate > 0.96:
            alpha = 0.5
        elif rate > 0.8:
            alpha = 0.9
        elif rate > 0.15:
            alpha = 0.95
        else:
            alpha = 0.8
        t *= alpha
        range_limit = _shrunk_range_limit(
            range_limit, rate, max(layout.width, layout.height)
        )
        levels += 1
        if proxy is not None:
            # One real solve per level: splu is factored once, each
            # calibration is a cheap back-substitution.
            proxy.calibrate()
        if levels % INTEGRITY_CHECK_INTERVAL == 0:
            _check_cost_integrity(
                hpwl, nets, placement.location, proxy, net_cost
            )

    _check_cost_integrity(hpwl, nets, placement.location, proxy, net_cost)
    if proxy is not None:
        proxy.calibrate()
        placement.thermal_stats = proxy.stats(thermal_weight)
    placement.validate(packed)
    return placement


def _shrunk_range_limit(
    range_limit: float, rate: float, max_dim: int | float
) -> float:
    """Next move-window radius from this level's acceptance rate.

    VPR's schedule: the window shrinks while acceptance is below 44 %
    and re-expands (clamped to the die) when moves are mostly accepted,
    holding the anneal near the productive acceptance band.
    """
    return min(
        float(max_dim),
        max(1.0, range_limit * (1.0 - 0.44 + rate)),
    )


def _check_cost_integrity(
    tracked_hpwl: float,
    nets: List[Tuple[float, List[int]]],
    location: Dict[int, Tuple[int, int]],
    proxy: Optional[ThermalProxy],
    net_cost: List[float],
) -> None:
    """Fail loudly if the incremental cost drifted from a full recompute.

    Every cached ``net_cost`` entry must equal its recomputed HPWL
    exactly: a cached cost is the same expression on the same
    coordinates, so any difference is stale bookkeeping.
    """
    full_costs = [_net_hpwl(net, location) for net in nets]
    if net_cost != full_costs:
        i = next(i for i, c in enumerate(full_costs) if net_cost[i] != c)
        raise PlacementIntegrityError(
            f"cached net cost {net_cost[i]!r} of net {i} differs from its "
            f"recomputed HPWL {full_costs[i]!r}"
        )
    full_hpwl = sum(full_costs)
    tolerance = _INTEGRITY_REL_TOL * max(1.0, abs(full_hpwl))
    if abs(tracked_hpwl - full_hpwl) > tolerance:
        raise PlacementIntegrityError(
            f"incremental HPWL {tracked_hpwl!r} drifted from recomputed "
            f"{full_hpwl!r} (tolerance {tolerance:g})"
        )
    if proxy is not None:
        full_raw = proxy.full_raw_cost()
        tolerance = _INTEGRITY_REL_TOL * max(1.0, abs(full_raw))
        if abs(proxy.raw_cost - full_raw) > tolerance:
            raise PlacementIntegrityError(
                f"incremental thermal proxy cost {proxy.raw_cost!r} drifted "
                f"from recomputed {full_raw!r} (tolerance {tolerance:g})"
            )


def _initial_placement(
    packed: PackedNetlist, layout: FabricLayout, rng: np.random.Generator
) -> Placement:
    location: Dict[int, Tuple[int, int]] = {}
    occupants: Dict[Tuple[int, int], List[int]] = {}
    slots: Dict[TileType, List[Tuple[int, int]]] = {}
    for tile in layout.tiles():
        for _ in range(tile.capacity):
            slots.setdefault(tile.type, []).append((tile.x, tile.y))
    for type_, available in slots.items():
        rng.shuffle(available)
    cursor: Dict[TileType, int] = {t: 0 for t in slots}
    for cluster in packed.clusters:
        pool = slots.get(cluster.type, [])
        index = cursor.get(cluster.type, 0)
        if index >= len(pool):
            raise ValueError(
                f"not enough {cluster.type.value} tiles for cluster {cluster.id}"
            )
        xy = pool[index]
        cursor[cluster.type] = index + 1
        location[cluster.id] = xy
        occupants.setdefault(xy, []).append(cluster.id)
    return Placement(layout, location, occupants)


def _placement_nets(
    packed: PackedNetlist, net_weights: Optional[Dict[int, float]] = None
) -> List[Tuple[float, List[int]]]:
    """(weight, cluster ids) per net (single-cluster nets dropped)."""
    nets: List[Tuple[float, List[int]]] = []
    for net in packed.netlist.nets:
        clusters: Set[int] = {packed.cluster_of_block[net.driver]}
        clusters |= {packed.cluster_of_block[s] for s in net.sinks}
        if len(clusters) > 1:
            weight = 1.0 if net_weights is None else net_weights.get(net.id, 1.0)
            nets.append((weight, sorted(clusters)))
    return nets


def _net_hpwl(
    net: Tuple[float, List[int]], location: Dict[int, Tuple[int, int]]
) -> float:
    weight, clusters = net
    x_lo, y_lo = x_hi, y_hi = location[clusters[0]]
    for cluster_id in clusters:
        x, y = location[cluster_id]
        if x < x_lo:
            x_lo = x
        elif x > x_hi:
            x_hi = x
        if y < y_lo:
            y_lo = y
        elif y > y_hi:
            y_hi = y
    return weight * ((x_hi - x_lo) + (y_hi - y_lo))


def _initial_temperature(
    packed, layout, tiles, placement, nets, nets_of_cluster, net_cost, draws,
    proxy=None,
):
    """(initial T, summed HPWL delta of the applied sampling moves)."""
    deltas = []
    applied_hpwl = 0.0
    for _ in range(min(200, 10 * len(packed.clusters))):
        delta, hpwl_delta, move = _propose(
            packed, layout, tiles, placement, nets, nets_of_cluster,
            net_cost, draws, max(layout.width, layout.height), proxy,
        )
        if move is not None:
            _commit(placement, net_cost, proxy, move)  # VPR applies them too
            deltas.append(delta)
            applied_hpwl += hpwl_delta
    if not deltas:
        return 1.0, applied_hpwl
    return 20.0 * float(np.std(deltas)) + 1e-9, applied_hpwl


def _propose(
    packed, layout, tiles, placement, nets, nets_of_cluster, net_cost, draws,
    limit, proxy=None,
):
    """Propose a move; returns (delta_cost, delta_hpwl, move | None).

    ``tiles`` holds each tile's ``(type, capacity)`` in row-major order,
    ``limit`` is the move window's radius in tiles, ``net_cost``
    the anneal's cached per-net HPWL and ``draws`` its :class:`_Draws`.
    ``delta_cost`` is the blended objective change (HPWL plus the
    weighted thermal proxy term when one is active); ``delta_hpwl`` is
    its wirelength component alone, for the integrity guard's separate
    HPWL tracking.  ``move`` is the record :func:`_commit` applies:
    ``(moved, affected net indices, their new costs)``, where ``moved``
    holds ``(cluster_id, old_xy, new_xy)`` for the cluster and then its
    swap partner.
    """
    clusters = packed.clusters
    cluster = clusters[draws.integers(0, len(clusters))]
    location = placement.location
    x0, y0 = location[cluster.id]
    width = layout.width
    height = layout.height
    x1 = x0 + draws.integers(-limit, limit + 1)
    y1 = y0 + draws.integers(-limit, limit + 1)
    # Clamp to the die.
    if x1 < 0:
        x1 = 0
    elif x1 >= width:
        x1 = width - 1
    if y1 < 0:
        y1 = 0
    elif y1 >= height:
        y1 = height - 1
    if x1 == x0 and y1 == y0:
        return 0.0, 0.0, None
    target_type, target_capacity = tiles[y1 * width + x1]
    if target_type != cluster.type:
        return 0.0, 0.0, None

    occupants = placement.occupants.setdefault((x1, y1), [])
    swap_with: Optional[int] = None
    if len(occupants) >= target_capacity:
        swap_with = occupants[draws.integers(0, len(occupants))]

    moved = [(cluster.id, (x0, y0), (x1, y1))]
    if swap_with is not None:
        moved.append((swap_with, (x1, y1), (x0, y0)))

    affected_set: Set[int] = set()
    for cluster_id, _old, _new in moved:
        affected_set |= set(nets_of_cluster.get(cluster_id, ()))
    # One pass over the set fixes the order both sums run in.
    affected = list(affected_set)
    before = sum([net_cost[i] for i in affected])
    # The trial placement is the current one with only the moved clusters
    # overlaid: written into ``location`` for the "after" costs and
    # restored before returning, so a move costs O(affected pins), not
    # O(clusters).
    for cluster_id, _old, new in moved:
        location[cluster_id] = new
    try:
        new_costs = [_net_hpwl(nets[i], location) for i in affected]
    finally:
        for cluster_id, old, _new in moved:
            location[cluster_id] = old
    delta = sum(new_costs) - before
    hpwl_delta = delta
    if proxy is not None:
        delta = hpwl_delta + proxy.delta_for(moved)
    return delta, hpwl_delta, (moved, affected, new_costs)


def _commit(placement, net_cost, proxy, move) -> None:
    """Apply a :func:`_propose` move record: locations, occupants, the
    cached net costs, then the thermal proxy."""
    moved, affected, new_costs = move
    location = placement.location
    occupants = placement.occupants
    for cluster_id, old, new in moved:
        location[cluster_id] = new
        occupants[old].remove(cluster_id)
        occupants.setdefault(new, []).append(cluster_id)
    for i, c in zip(affected, new_costs):
        net_cost[i] = c
    if proxy is not None:
        proxy.apply(moved)
