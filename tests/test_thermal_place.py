"""Tests for repro.cad.thermal_place — the placement thermal proxy.

Covers the incremental-cost bookkeeping (delta prediction == committed
delta == from-scratch recompute, and every priced delta and committed
state equal to the per-move dict walk the footprint plans replaced, kept
here as the oracle), the solver calibration loop (gamma
fit, drift-triggered refits, loud shape failure), the anneal's
integrity guard, determinism, and the observe telemetry the proxy
emits.
"""

import math
import struct

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.cad.place as place_module
from repro import observe
from repro.activity.ace import estimate_activity
from repro.arch.layout import FabricLayout, Tile, TileType
from repro.cad import thermal_place
from repro.cad.pack import pack_netlist
from repro.cad.place import (
    PlacementIntegrityError,
    _check_cost_integrity,
    _initial_placement,
    _net_hpwl,
    _placement_nets,
    place,
)
from repro.cad.thermal_place import (
    KERNEL_DECAY_TILES,
    KERNEL_RADIUS,
    SHAPE_TOLERANCE,
    ThermalPlaceError,
    ThermalProxy,
    _kernel_reach,
    _spreading_kernel,
    cluster_densities,
    density_vector,
    static_tile_density,
)
from repro.netlists.netlist import BlockType
from repro.observe.sinks import InMemorySink


@pytest.fixture(scope="module")
def packed(tiny_netlist, arch):
    return pack_netlist(tiny_netlist, arch)


@pytest.fixture(scope="module")
def layout(packed, arch):
    counts = {t: 0 for t in TileType}
    for c in packed.clusters:
        counts[c.type] += 1
    return FabricLayout.for_netlist(
        arch, counts[TileType.CLB], counts[TileType.BRAM],
        counts[TileType.DSP], counts[TileType.IO],
    )


@pytest.fixture(scope="module")
def activity(tiny_netlist, tiny_spec):
    return estimate_activity(tiny_netlist, tiny_spec.base_activity)


def make_proxy(packed, layout, activity, seed=5, **kwargs):
    rng = np.random.default_rng(seed)
    placement = _initial_placement(packed, layout, rng)
    return ThermalProxy(
        layout, packed, activity, placement.location, **kwargs
    ), placement


def random_move(proxy, packed, layout, placement, rng):
    """One random same-type relocation: ``(cluster_id, a, b)`` with the
    flat from- and to-tile indices."""
    cluster = packed.clusters[int(rng.integers(0, len(packed.clusters)))]
    x0, y0 = placement.location[cluster.id]
    candidates = [
        (t.x, t.y) for t in layout.tiles()
        if t.type == cluster.type and (t.x, t.y) != (x0, y0)
    ]
    x1, y1 = candidates[int(rng.integers(0, len(candidates)))]
    placement.location[cluster.id] = (x1, y1)
    return cluster.id, y0 * layout.width + x0, y1 * layout.width + x1


def moved_list(proxy, cluster_id, partner, a, b):
    """The dict walk's move list of ``price(cluster_id, partner, a, b)``."""
    width = proxy.layout.width
    xy_a, xy_b = (a % width, a // width), (b % width, b // width)
    moved = [(cluster_id, xy_a, xy_b)]
    if partner is not None:
        moved.append((partner, xy_b, xy_a))
    return moved


def dict_walk_footprint(proxy, moved):
    """The oracle: spread deltas by flat tile of a move list, summed into a
    dict the way the proxy summed them before it priced from footprint
    plans.  Kernel entry by kernel entry, the old tile's footprint loses
    the cluster's share before the new tile's gains it; the dict's
    insertion order is the summation order of :func:`dict_walk_delta`.
    """
    kernel = _spreading_kernel(KERNEL_RADIUS, KERNEL_DECAY_TILES)
    width = proxy.layout.width
    reach = _kernel_reach(kernel, width, proxy.layout.height)
    deltas = {}
    get = deltas.get
    for cluster_id, (x0, y0), (x1, y1) in moved:
        density = proxy._cluster_density[cluster_id]
        if density == 0.0:
            continue
        shares = [kw * density for _dx, _dy, kw in kernel]
        for share, ka, kb in zip(
            shares, reach[y0 * width + x0], reach[y1 * width + x1]
        ):
            if ka >= 0:
                deltas[ka] = get(ka, 0.0) - share
            if kb >= 0:
                deltas[kb] = get(kb, 0.0) + share
    return deltas


def dict_walk_delta(proxy, moved):
    """The oracle's weighted thermal delta of a move list."""
    spread = proxy._spread
    raw_delta = 0.0
    for k, d in dict_walk_footprint(proxy, moved).items():
        s = spread[k]
        raw_delta += d * (2.0 * s + d)
    return proxy.weight * raw_delta


def dict_walk_apply(proxy, moved):
    """Commit a move list to ``proxy``'s state the oracle's way."""
    spread = proxy._spread
    raw_delta = 0.0
    for k, d in dict_walk_footprint(proxy, moved).items():
        s = spread[k]
        raw_delta += d * (2.0 * s + d)
        spread[k] = s + d
    width = proxy.layout.width
    for cluster_id, (x0, y0), (x1, y1) in moved:
        d = proxy._cluster_density[cluster_id]
        proxy._density[y0 * width + x0] -= d
        proxy._density[y1 * width + x1] += d
    proxy.raw_cost += raw_delta


class _Die(FabricLayout):
    """A die of CLB tiles of any size (a real layout starts at 4x4)."""

    def __init__(self, arch, width, height):
        self.arch, self.width, self.height = arch, width, height
        self._tiles = [
            Tile(x, y, TileType.CLB)
            for y in range(height) for x in range(width)
        ]


def synthetic_proxy(arch, width, height, densities, tiles):
    """A proxy on a ``width`` x ``height`` die whose cluster ``i`` has
    density ``densities[i]`` (0.0 is idle) and sits on flat tile
    ``tiles[i]``: one LUT per cluster, whose activity is its density."""
    n = len(densities)
    packed = SimpleNamespace(
        clusters=[SimpleNamespace(id=i, block_ids=[i]) for i in range(n)],
        netlist=SimpleNamespace(blocks=[
            SimpleNamespace(output_nets=[i], input_nets=[], type=BlockType.LUT)
            for i in range(n)
        ]),
    )
    activity = SimpleNamespace(alpha=list(densities))
    location = {i: (t % width, t // width) for i, t in enumerate(tiles)}
    return ThermalProxy(_Die(arch, width, height), packed, activity, location)


def check_against_oracle(proxy, twin, steps, tiles):
    """Drive ``proxy`` by ``price``/``commit`` and its twin by the dict
    walk through ``steps`` of ``(cluster, partner, target, accept)``
    (``partner`` is ``None`` or the index of a cluster to swap with, and
    then the target is that cluster's tile); every priced delta and the
    state after every commit must be equal to the oracle's, bit for bit.
    """
    tiles = list(tiles)
    for cluster, partner, target, accept in steps:
        if partner == cluster:
            partner = None
        a = tiles[cluster]
        b = target if partner is None else tiles[partner]
        moved = moved_list(twin, cluster, partner, a, b)
        assert proxy.price(cluster, partner, a, b) == dict_walk_delta(
            twin, moved
        )
        if accept:
            proxy.commit()
            dict_walk_apply(twin, moved)
            tiles[cluster] = b
            if partner is not None:
                tiles[partner] = a
            assert proxy._spread == twin._spread
            assert proxy._density == twin._density
            assert struct.pack("<d", proxy.raw_cost) == struct.pack(
                "<d", twin.raw_cost
            )


@st.composite
def anneal_walks(draw):
    """A random die (1-9 tiles a side), clusters on it (some idle) and
    a walk of moves of every kind: near, far, in place and swaps."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    n_tiles = width * height
    densities = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
        min_size=2, max_size=6,
    ))
    n = len(densities)
    tiles = draw(st.lists(
        st.integers(0, n_tiles - 1), min_size=n, max_size=n
    ))
    steps = draw(st.lists(st.tuples(
        st.integers(0, n - 1),
        st.one_of(st.none(), st.integers(0, n - 1)),
        st.integers(0, n_tiles - 1),
        st.booleans(),
    ), max_size=25))
    weight = draw(st.floats(0.1, 10.0))
    return width, height, densities, tiles, steps, weight


MOVE_KINDS = {
    # kind: (densities, cluster tiles, steps) on a 9x9 die; cluster 0
    # starts at (1, 1), cluster 1 at (2, 2), cluster 2 at (7, 8).
    "near": ([2.0, 1.5, 3.0], [10, 20, 79], [(0, None, 12, True)]),
    "far": ([2.0, 1.5, 3.0], [10, 20, 79], [(0, None, 70, True)]),
    "in_place": ([2.0, 1.5, 3.0], [10, 20, 79], [(0, None, 10, True)]),
    "swap": ([2.0, 1.5, 3.0], [10, 20, 79], [(0, 1, 0, True)]),
    "far_swap": ([2.0, 1.5, 3.0], [10, 20, 79], [(0, 2, 0, True)]),
    "swap_idle_cluster": ([0.0, 1.5, 3.0], [10, 20, 79], [(0, 1, 0, True)]),
    "swap_idle_partner": ([2.0, 0.0, 3.0], [10, 20, 79], [(0, 1, 0, True)]),
    "swap_both_idle": ([0.0, 0.0, 3.0], [10, 20, 79], [(0, 1, 0, True)]),
    "idle_move": ([0.0, 1.5, 3.0], [10, 20, 79], [(0, None, 40, True)]),
    "rejected_then_kept": (
        [2.0, 1.5, 3.0], [10, 20, 79],
        [(0, 1, 0, False), (2, None, 0, False), (1, 0, 0, True)],
    ),
}
"""Each kind of move :func:`place` makes (and ``in_place``, which it
never prices), walked once against the oracle."""


class TestDensityModel:
    def test_cluster_densities_positive_for_active_logic(
        self, packed, activity
    ):
        densities = cluster_densities(packed, activity)
        assert set(densities) == {c.id for c in packed.clusters}
        # The tiny design's logic clusters all switch, so they all heat.
        assert all(d >= 0.0 for d in densities.values())
        assert max(densities.values()) > 0.0

    def test_static_density_everywhere_positive(self, layout):
        base = static_tile_density(layout)
        assert base.shape == (layout.n_tiles,)
        assert np.all(base > 0.0)

    def test_density_vector_decomposes(self, packed, layout, activity):
        rng = np.random.default_rng(1)
        placement = _initial_placement(packed, layout, rng)
        total = density_vector(packed, placement.location, layout, activity)
        dynamic = density_vector(
            packed, placement.location, layout, activity, include_static=False
        )
        assert total.shape == (layout.n_tiles,)
        np.testing.assert_allclose(
            total - dynamic, static_tile_density(layout)
        )
        assert dynamic.sum() == pytest.approx(
            sum(cluster_densities(packed, activity).values())
        )

    def test_kernel_is_normalized_and_peaked_at_center(self):
        kernel = _spreading_kernel(2, 1.3)
        assert len(kernel) == 25
        assert sum(w for _, _, w in kernel) == pytest.approx(1.0)
        center = next(w for dx, dy, w in kernel if dx == 0 and dy == 0)
        assert center == max(w for _, _, w in kernel)


class TestIncrementalCost:
    def test_initial_raw_cost_matches_full_recompute(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        assert proxy.raw_cost == pytest.approx(proxy.full_raw_cost())

    def test_delta_prediction_matches_commit_and_recompute(
        self, packed, layout, activity
    ):
        proxy, placement = make_proxy(packed, layout, activity)
        proxy.weight = 1.0  # raw units: price returns the raw delta
        rng = np.random.default_rng(9)
        for _ in range(40):
            before = proxy.raw_cost
            cluster_id, a, b = random_move(
                proxy, packed, layout, placement, rng
            )
            predicted = proxy.price(cluster_id, None, a, b)
            proxy.commit()
            assert proxy.raw_cost == pytest.approx(before + predicted)
        # After a long random walk the incremental state still agrees
        # with a from-scratch spread of the tracked density field.
        assert proxy.raw_cost == pytest.approx(proxy.full_raw_cost())

    def test_swap_move_footprints_cancel(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        proxy.weight = 1.0
        # A cluster moved out and straight back is a thermal no-op.
        cluster = packed.clusters[0]
        x0, y0 = placement.location[cluster.id]
        a = y0 * layout.width + x0
        assert proxy.price(cluster.id, None, a, a) == pytest.approx(0.0)

    def test_apply_reuses_the_priced_footprint_exactly(
        self, packed, layout, activity
    ):
        """``commit`` after ``price`` (the priced plan's deltas) and the
        dict walk's commit alone (a fresh footprint, never priced) commit
        the same bytes, over a walk that keeps both proxies in step."""
        priced, placement = make_proxy(packed, layout, activity)
        fresh, _ = make_proxy(packed, layout, activity)
        priced.weight = fresh.weight = 1.0
        rng = np.random.default_rng(4)
        for _ in range(40):
            move = random_move(priced, packed, layout, placement, rng)
            priced.price(move[0], None, *move[1:])
            priced.commit()
            dict_walk_apply(fresh, moved_list(fresh, move[0], None, *move[1:]))
            assert struct.pack("<d", priced.raw_cost) == struct.pack(
                "<d", fresh.raw_cost
            )
        assert priced._spread == fresh._spread
        assert fresh.n_proxy_evals == 0

    def test_proxy_eval_counter_tracks_calls(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        rng = np.random.default_rng(2)
        move = random_move(proxy, packed, layout, placement, rng)
        assert proxy.n_proxy_evals == 0
        proxy.price(move[0], None, *move[1:])
        proxy.price(move[0], None, *move[1:])
        assert proxy.n_proxy_evals == 2


class TestPricingOracle:
    """:meth:`ThermalProxy.price` and :meth:`~ThermalProxy.commit` against
    the per-move dict walk they replaced (:func:`dict_walk_footprint`):
    every delta, spread value, density and ``raw_cost`` equal with
    ``==``."""

    @settings(max_examples=200, deadline=None)
    @given(walk=anneal_walks())
    def test_random_walks_equal_the_dict_walk(self, arch, walk):
        width, height, densities, tiles, steps, weight = walk
        proxy, twin = (
            synthetic_proxy(arch, width, height, densities, tiles)
            for _ in range(2)
        )
        proxy.weight = twin.weight = weight
        check_against_oracle(proxy, twin, steps, tiles)

    @pytest.mark.parametrize("kind", sorted(MOVE_KINDS))
    def test_every_move_kind(self, arch, kind):
        densities, tiles, steps = MOVE_KINDS[kind]
        proxy, twin = (
            synthetic_proxy(arch, 9, 9, densities, tiles) for _ in range(2)
        )
        proxy.weight = twin.weight = 1.0
        check_against_oracle(proxy, twin, steps, tiles)

    def test_placer_walk_with_a_full_memo(
        self, monkeypatch, packed, layout, activity
    ):
        """With one plan a tile the memo drops its oldest plans all the
        time; the walk still equals the oracle's and the memo stays at
        its bound."""
        monkeypatch.setattr(thermal_place, "PLANS_PER_TILE", 1)
        proxy, placement = make_proxy(packed, layout, activity)
        twin, _ = make_proxy(packed, layout, activity)
        proxy.weight = twin.weight = 1.0
        rng = np.random.default_rng(8)
        for step in range(300):
            cluster_id, a, b = random_move(
                proxy, packed, layout, placement, rng
            )
            moved = moved_list(twin, cluster_id, None, a, b)
            assert proxy.price(cluster_id, None, a, b) == dict_walk_delta(
                twin, moved
            )
            proxy.commit()
            dict_walk_apply(twin, moved)
            assert len(proxy._plans) <= layout.n_tiles
        assert proxy._spread == twin._spread
        assert proxy.raw_cost == twin.raw_cost


class TestCalibration:
    def test_forced_fit_sets_gamma_within_shape_tolerance(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        assert proxy.gamma > 0.0
        assert proxy.n_calibrations == 1
        assert proxy.n_recalibrations == 1
        assert 0.0 <= proxy.final_shape_error <= SHAPE_TOLERANCE

    def test_fresh_gamma_is_stable_without_moves(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        drift = proxy.calibrate()
        # Nothing moved, so the fit reproduces the held gain exactly.
        assert drift == pytest.approx(0.0, abs=1e-12)
        assert proxy.n_recalibrations == 1

    def test_stale_gamma_triggers_refit(self, packed, layout, activity):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        good = proxy.gamma
        proxy.gamma = good * 10.0  # simulate a badly stale scaling
        drift = proxy.calibrate()
        assert drift > proxy.drift_tolerance
        assert proxy.n_recalibrations == 2
        assert proxy.gamma == pytest.approx(good)
        assert proxy.max_drift >= drift

    def test_unrepresentable_shape_fails_loudly(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(
            packed, layout, activity, shape_tolerance=1e-9
        )
        with pytest.raises(ThermalPlaceError, match="shape tolerance"):
            proxy.calibrate(force=True)

    def test_solver_is_reused_across_calibrations(
        self, packed, layout, activity
    ):
        proxy, _ = make_proxy(packed, layout, activity)
        proxy.calibrate(force=True)
        solver = proxy._solver
        assert solver is not None
        proxy.calibrate()
        assert proxy._solver is solver


class TestIntegrityGuard:
    @pytest.fixture()
    def guard_state(self, packed, layout, activity):
        proxy, placement = make_proxy(packed, layout, activity)
        nets = _placement_nets(packed)
        net_cost = [_net_hpwl(n, placement.location) for n in nets]
        return proxy, placement, nets, net_cost

    def test_consistent_state_passes(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        _check_cost_integrity(
            sum(net_cost), nets, placement.location, proxy, net_cost
        )

    def test_hpwl_drift_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        with pytest.raises(PlacementIntegrityError, match="HPWL"):
            _check_cost_integrity(
                sum(net_cost) + 1.0, nets, placement.location, proxy, net_cost
            )

    def test_proxy_drift_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        proxy.raw_cost += 0.1 * max(proxy.raw_cost, 1.0)
        with pytest.raises(PlacementIntegrityError, match="thermal proxy"):
            _check_cost_integrity(
                sum(net_cost), nets, placement.location, proxy, net_cost
            )

    def test_stale_net_cost_is_fatal(self, guard_state):
        proxy, placement, nets, net_cost = guard_state
        stale = list(net_cost)
        stale[3] = math.nextafter(stale[3], math.inf)
        with pytest.raises(PlacementIntegrityError, match="net 3"):
            _check_cost_integrity(
                sum(net_cost), nets, placement.location, proxy, stale
            )

    def test_anneal_detects_a_corrupted_net_cost(
        self, monkeypatch, packed, layout
    ):
        """One ulp on a cached net cost, far inside the HPWL tolerance,
        must still abort place(): cached costs are checked exactly."""
        original = place_module._anneal

        def corrupt(*args, net_cost, **kwargs):
            result = original(*args, net_cost=net_cost, **kwargs)
            net_cost[0] = math.nextafter(net_cost[0], math.inf)
            return result

        monkeypatch.setattr(place_module, "_anneal", corrupt)
        with pytest.raises(PlacementIntegrityError, match="cached net cost"):
            place(packed, layout, seed=3, effort=0.3)

    def test_anneal_detects_corrupted_bookkeeping(
        self, monkeypatch, packed, layout
    ):
        """A proxy whose commits drift from its deltas must abort place()."""
        original = ThermalProxy.commit

        def corrupt(self):
            original(self)
            self.raw_cost += 0.05 * max(abs(self.raw_cost), 1.0)

        monkeypatch.setattr(ThermalProxy, "commit", corrupt)
        with pytest.raises(PlacementIntegrityError):
            place(packed, layout, seed=3, effort=0.3, thermal_weight=0.5)


class TestThermalAwareAnneal:
    @pytest.fixture(scope="class")
    def thermal_placement(self, packed, layout):
        return place(packed, layout, seed=3, effort=0.5, thermal_weight=0.7)

    def test_deterministic_for_seed_and_weight(
        self, packed, layout, thermal_placement
    ):
        again = place(packed, layout, seed=3, effort=0.5, thermal_weight=0.7)
        assert again.location == thermal_placement.location

    def test_weight_changes_the_anneal(self, packed, layout, thermal_placement):
        baseline = place(packed, layout, seed=3, effort=0.5)
        assert baseline.location != thermal_placement.location
        assert baseline.thermal_stats is None

    def test_stats_attached_and_sane(self, thermal_placement):
        stats = thermal_placement.thermal_stats
        assert stats is not None
        assert stats.thermal_weight == 0.7
        assert stats.gamma > 0.0
        assert stats.n_calibrations >= 2  # forced fit + final check
        assert stats.n_recalibrations >= 1
        assert stats.n_proxy_evals > 0
        assert np.isfinite(stats.max_drift)
        assert stats.final_shape_error <= SHAPE_TOLERANCE
        assert stats.proxy_cost >= 0.0

    def test_stats_floats_are_python_floats(self, thermal_placement):
        stats = thermal_placement.thermal_stats
        for name in ("proxy_cost", "gamma", "max_drift", "final_drift",
                     "final_shape_error"):
            assert type(getattr(stats, name)) is float, name
        assert "np.float64" not in repr(stats)

    def test_valid_placement(self, packed, thermal_placement):
        thermal_placement.validate(packed)

    def test_rejects_invalid_weight(self, packed, layout):
        with pytest.raises(ValueError, match="thermal_weight"):
            place(packed, layout, seed=3, thermal_weight=-0.5)
        with pytest.raises(ValueError, match="thermal_weight"):
            place(packed, layout, seed=3, thermal_weight=float("nan"))

    def test_observe_telemetry_emitted(self, packed, layout):
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            place(packed, layout, seed=3, effort=0.3, thermal_weight=0.5)
        span_names = {r["name"] for r in sink.spans()}
        assert "place.thermal.calibrate" in span_names
        event_names = {r["name"] for r in sink.events()}
        assert "place.thermal.drift" in event_names
        metric_names = {r["name"] for r in sink.metrics()}
        assert "place.thermal.recalibrations" in metric_names
        assert "place.thermal.proxy_evals" in metric_names
