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
from itertools import chain
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro import observe
from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.arch.layout import FabricLayout, TileType
from repro.cad.pack import PackedNetlist
from repro.cad.thermal_place import ThermalPlaceStats, ThermalProxy

INTEGRITY_CHECK_INTERVAL = 8
"""Temperature levels between full-cost integrity recomputations."""

_INTEGRITY_REL_TOL = 1e-6
"""Allowed relative disagreement between the incrementally-maintained
cost and a from-scratch recomputation before the anneal fails loudly."""

_WORK_COUNTERS = (
    "place.moves_accepted", "place.moves_priced", "place.swaps",
    "place.net_scans",
)
"""Counters of the work :func:`_anneal` returns first, in its order."""


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

    Both are closures over the word stream and the half-word buffer
    (a closure cell reads faster than an attribute), bound once by the
    anneal.  Words are pulled 1024 at a time, ahead of use.  That leaves
    the wrapped generator past the draws, which is harmless here: the
    placer's generator is local to :func:`place` and dies when it
    returns.  ``tests/test_place_draws.py`` pins every value to numpy's.
    """

    __slots__ = ("integers", "random")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(
                f"draw replay needs a PCG64 bit generator, got "
                f"{type(bit_generator).__name__}"
            )
        state = bit_generator.state
        blocks = iter(lambda: bit_generator.random_raw(1024).tolist(), None)
        next_word = chain.from_iterable(blocks).__next__
        half = state["uinteger"] if state["has_uint32"] else -1
        # ``half`` is the buffered high half-word, or -1 when none is.

        def integers(low: int, high: int) -> int:
            """``int(Generator.integers(low, high))``: one value in
            [low, high)."""
            nonlocal half
            span = high - low
            if not 1 < span <= 0x100000000:
                if span == 1:
                    return low
                raise ValueError(
                    f"draw span must be in [1, 2**32], got [{low}, {high})"
                )
            # numpy's Lemire step with rng = span - 1: accept a half-word
            # whose low product bits reach the threshold, which is below
            # span, so nearly every draw stops at the first test.  A span
            # of 2**32 never rejects and returns the half-word as is, as
            # numpy's unscaled path for that span does.
            while True:
                if half >= 0:
                    m = half * span
                    half = -1
                else:
                    word = next_word()
                    half = word >> 32
                    m = (word & 0xFFFFFFFF) * span
                leftover = m & 0xFFFFFFFF
                if leftover >= span or (
                    leftover >= (0xFFFFFFFF - (span - 1)) % span
                ):
                    return low + (m >> 32)

        def random() -> float:
            """``Generator.random()``: one float in [0, 1)."""
            return (next_word() >> 11) * 2.0**-53

        self.integers = integers
        self.random = random


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

    # net_cost[i] is _net_hpwl(nets[i], location), kept in step with the
    # placement by _anneal (VPR's net_cost[] array).
    net_cost = [_net_hpwl(net, placement.location) for net in nets]
    hpwl = sum(net_cost)
    ids = [c.id for c in packed.clusters]
    net_sets: Dict[int, Set[int]] = {cluster_id: set() for cluster_id in ids}
    for net_index, (_weight, clusters) in enumerate(nets):
        for cluster_id in clusters:
            net_sets[cluster_id].add(net_index)

    proxy: Optional[ThermalProxy] = None
    if thermal_weight > 0.0:
        if activity is None:
            activity = estimate_activity(packed.netlist)
        proxy = ThermalProxy(layout, packed, activity, placement.location)
        proxy.calibrate(force=True)
        # Normalise: at weight w the thermal term starts at w x the
        # initial wirelength cost, so w is a dimensionless blend knob.
        proxy.weight = thermal_weight * hpwl / max(proxy.raw_cost, 1e-12)

    state = dict(
        draws=_Draws(rng),
        ids=ids,
        types=[c.type for c in packed.clusters],
        tiles=[(tile.type, tile.capacity) for tile in layout.tiles()],
        width=layout.width,
        height=layout.height,
        location=placement.location,
        occupants=placement.occupants,
        nets=nets,
        net_cost=net_cost,
        net_sets=net_sets,
        affected_of=[list(set().union(net_sets[cid])) for cid in ids],
        proxy=proxy,
    )
    n = len(ids)
    moves_per_t = max(16, int(effort * 5 * n**1.33))
    max_dim = max(layout.width, layout.height)
    # Initial temperature: VPR heuristic — std-dev of a random-move sample.
    # The sampling moves are applied (as VPR does); their summed HPWL delta
    # keeps the tracked hpwl true for the integrity guard.
    sampled: List[float] = []
    *_, sampled_hpwl = _anneal(
        min(200, 10 * n), max_dim, None, 0.0, 0.0, deltas=sampled, **state
    )
    t = 20.0 * float(np.std(sampled)) + 1e-9 if sampled else 1.0
    # Termination-threshold baseline: the legacy placer seeded ``cost``
    # before the sampling moves and never resynced, so thermal_weight=0
    # must keep that exact baseline to stay bit-identical.
    cost = hpwl
    hpwl += sampled_hpwl
    if proxy is not None:
        cost = hpwl + proxy.weighted_cost()
    range_limit = float(max_dim)

    levels = 0
    work = [0] * len(_WORK_COUNTERS)
    while t > 0.002 * max(cost, 1e-9) / max(len(nets), 1):
        *level_work, cost, hpwl = _anneal(
            moves_per_t, max(1, int(range_limit)), max(t, 1e-30), cost, hpwl,
            **state,
        )
        work = [a + b for a, b in zip(work, level_work)]
        rate = level_work[0] / moves_per_t
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
        range_limit = _shrunk_range_limit(range_limit, rate, max_dim)
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
    # Exact work of the anneal's levels; the initial-temperature sample
    # (at most 200 moves) is not counted.
    for name, value in zip(_WORK_COUNTERS, work):
        observe.counter(name).inc(value)
    observe.counter("place.moves_proposed").inc(moves_per_t * levels)
    observe.counter("place.levels").inc(levels)
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


def _anneal(
    n_moves: int,
    limit: int,
    t: Optional[float],
    cost: float,
    hpwl: float,
    *,
    draws: _Draws,
    ids: List[int],
    types: List[TileType],
    tiles: List[Tuple[TileType, int]],
    width: int,
    height: int,
    location: Dict[int, Tuple[int, int]],
    occupants: Dict[Tuple[int, int], List[int]],
    nets: List[Tuple[float, List[int]]],
    net_cost: List[float],
    net_sets: Dict[int, Set[int]],
    affected_of: List[List[int]],
    proxy: Optional[ThermalProxy],
    deltas: Optional[List[float]] = None,
) -> Tuple[int, int, int, int, float, float]:
    """Propose ``n_moves`` moves within ``limit`` tiles and keep those the
    Metropolis test at temperature ``t`` accepts.

    ``t=None`` is the initial-temperature sample: every priced move is
    kept and its cost delta appended to ``deltas``.  ``cost`` and
    ``hpwl`` (the blended objective and its wirelength part) come back
    advanced by each kept move in turn.  Returns ``(kept, priced, swaps,
    scans, cost, hpwl)``, the first four counted as
    :data:`_WORK_COUNTERS`: the moves kept, the moves that reached
    pricing, the priced moves that swap two clusters and the net
    bounding boxes the pricing rescanned.

    A move draws a cluster (by index into ``ids``) and an x and a y
    offset, clamps the target to the die and is dropped, with no further
    draw, when the cluster would stay put or the target tile is of
    another type.  A full target swaps with an occupant drawn from its
    roster.  The move is written into ``location`` and priced there: the
    affected nets' new bounding boxes against their cached ``net_cost``,
    plus the thermal proxy's delta when there is a proxy, which prices
    the move from its flat from- and to-tile indices.  A kept move then
    updates the rosters (remove then append, the cluster before its
    partner), ``net_cost`` and the proxy (committing what it last
    priced); a rejected one puts ``location`` back.
    ``affected_of[i]`` lists cluster ``i``'s nets in
    the order of ``set().union(net_sets[id])``, and a swap iterates
    ``set().union`` of both clusters' sets, so every sum runs in one
    fixed order.
    """
    integers = draws.integers
    random = draws.random
    exp = math.exp
    n = len(ids)
    low, high = -limit, limit + 1
    x_max, y_max = width - 1, height - 1
    if proxy is not None:
        price, commit = proxy.price, proxy.commit
    cached_cost = net_cost.__getitem__
    kept = priced = swaps = scans = 0
    for _ in range(n_moves):
        i = integers(0, n)
        cluster_id = ids[i]
        old = location[cluster_id]
        x0, y0 = old
        x1 = x0 + integers(low, high)
        y1 = y0 + integers(low, high)
        # Clamp to the die.
        if x1 < 0:
            x1 = 0
        elif x1 > x_max:
            x1 = x_max
        if y1 < 0:
            y1 = 0
        elif y1 > y_max:
            y1 = y_max
        if x1 == x0 and y1 == y0:
            continue
        b = y1 * width + x1
        target_type, capacity = tiles[b]
        if target_type is not types[i]:
            continue
        new = (x1, y1)
        roster = occupants.get(new)
        if roster is None:
            roster = occupants[new] = []
        priced += 1
        location[cluster_id] = new
        partner: Optional[int] = None
        if len(roster) >= capacity:
            partner = roster[integers(0, len(roster))]
            location[partner] = old
            swaps += 1
            affected = list(
                set().union(net_sets[cluster_id], net_sets[partner])
            )
        else:
            affected = affected_of[i]
        scans += len(affected)
        before = sum(map(cached_cost, affected))
        new_costs = []
        # _net_hpwl inlined (a call per net costs about a tenth of the
        # loop); the integrity guard checks the two agree bit for bit.
        for k in affected:
            weight, members = nets[k]
            x_lo, y_lo = x_hi, y_hi = location[members[0]]
            for member in members:
                x, y = location[member]
                if x < x_lo:
                    x_lo = x
                elif x > x_hi:
                    x_hi = x
                if y < y_lo:
                    y_lo = y
                elif y > y_hi:
                    y_hi = y
            new_costs.append(weight * ((x_hi - x_lo) + (y_hi - y_lo)))
        delta = hpwl_delta = sum(new_costs) - before
        if proxy is not None:
            delta = hpwl_delta + price(cluster_id, partner, y0 * width + x0, b)
        if t is None:
            deltas.append(delta)  # type: ignore[union-attr]
        elif not (delta <= 0 or random() < exp(-delta / t)):
            location[cluster_id] = old
            if partner is not None:
                location[partner] = new
            continue
        source = occupants[old]
        source.remove(cluster_id)
        roster.append(cluster_id)
        if partner is not None:
            roster.remove(partner)
            source.append(partner)
        for k, c in zip(affected, new_costs):
            net_cost[k] = c
        if proxy is not None:
            commit()
        cost += delta
        hpwl += hpwl_delta
        kept += 1
    return kept, priced, swaps, scans, cost, hpwl
