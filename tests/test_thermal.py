"""Tests for the steady-state thermal solver."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix, lil_matrix
from scipy.sparse.linalg import splu

from repro import observe
from repro.arch.layout import FabricLayout
from repro.arch.params import ArchParams
from repro.observe.sinks import InMemorySink
from repro.thermal.hotspot import ThermalSolver
from repro.thermal.package import ThermalPackage


@pytest.fixture(scope="module")
def layout():
    return FabricLayout(ArchParams(), 8, 8)


@pytest.fixture(scope="module")
def solver(layout):
    return ThermalSolver(layout)


class TestThermalSolver:
    def test_zero_power_is_ambient(self, solver, layout):
        temps = solver.solve(np.zeros(layout.n_tiles), 25.0)
        assert np.allclose(temps, 25.0)

    def test_uniform_power_uniform_rise(self, solver, layout):
        power = np.full(layout.n_tiles, 1e-4)
        temps = solver.solve(power, 25.0)
        expected = 25.0 + 1e-4 / solver.package.g_vertical_w_per_k
        assert np.allclose(temps, expected, rtol=1e-9)

    def test_energy_conservation(self, solver, layout):
        rng = np.random.default_rng(3)
        power = rng.uniform(0.0, 1e-3, layout.n_tiles)
        temps = solver.solve(power, 30.0)
        heat_out = solver.package.g_vertical_w_per_k * (temps - 30.0)
        assert heat_out.sum() == pytest.approx(power.sum(), rel=1e-9)

    def test_hotspot_peaks_at_source(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        center = layout.tile_index(4, 4)
        power[center] = 2e-3
        temps = solver.solve(power, 25.0)
        assert np.argmax(temps) == center
        assert temps[center] > temps[layout.tile_index(0, 0)] + 0.5

    def test_lateral_spreading_monotone_with_distance(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[layout.tile_index(4, 4)] = 2e-3
        temps = solver.solve(power, 25.0)
        t_near = temps[layout.tile_index(4, 5)]
        t_far = temps[layout.tile_index(4, 7)]
        assert t_near > t_far

    def test_linearity_in_power(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[10] = 1e-3
        rise1 = solver.solve(power, 25.0) - 25.0
        rise2 = solver.solve(2.0 * power, 25.0) - 25.0
        assert np.allclose(rise2, 2.0 * rise1, rtol=1e-9)

    def test_ambient_shift(self, solver, layout):
        power = np.full(layout.n_tiles, 5e-5)
        a = solver.solve(power, 25.0)
        b = solver.solve(power, 70.0)
        assert np.allclose(b - a, 45.0, rtol=1e-9)

    def test_rejects_negative_power(self, solver, layout):
        power = np.zeros(layout.n_tiles)
        power[0] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            solver.solve(power, 25.0)

    def test_rejects_wrong_shape(self, solver):
        with pytest.raises(ValueError, match="shape"):
            solver.solve(np.zeros(7), 25.0)

    def test_batched_rows_match_single_solves_bitwise(self, solver, layout):
        rng = np.random.default_rng(11)
        batch = rng.uniform(0.0, 1e-3, (5, layout.n_tiles))
        temps = solver.solve(batch, 25.0)
        assert temps.shape == (5, layout.n_tiles)
        for row, power in zip(temps, batch):
            single = solver.solve(power, 25.0)
            np.testing.assert_array_equal(row, single)

    def test_batched_per_row_ambient(self, solver, layout):
        rng = np.random.default_rng(12)
        batch = rng.uniform(0.0, 1e-3, (3, layout.n_tiles))
        ambients = np.array([15.0, 25.0, 70.0])
        temps = solver.solve(batch, ambients)
        for row, power, ambient in zip(temps, batch, ambients):
            np.testing.assert_array_equal(row, solver.solve(power, ambient))

    def test_batched_scalar_ambient_broadcasts(self, solver, layout):
        batch = np.full((4, layout.n_tiles), 5e-5)
        uniform = solver.solve(batch, 40.0)
        spelled = solver.solve(batch, np.full(4, 40.0))
        np.testing.assert_array_equal(uniform, spelled)

    def test_batched_rejects_negative_row(self, solver, layout):
        batch = np.zeros((3, layout.n_tiles))
        batch[1, 0] = -1e-3
        with pytest.raises(ValueError, match=r"rows \[1\]"):
            solver.solve(batch, 25.0)

    def test_batched_rejects_wrong_width(self, solver):
        with pytest.raises(ValueError, match="batched power shape"):
            solver.solve(np.zeros((3, 7)), 25.0)

    def test_batched_rejects_ambient_length_mismatch(self, solver, layout):
        batch = np.zeros((3, layout.n_tiles))
        with pytest.raises(ValueError, match="ambient shape"):
            solver.solve(batch, np.array([25.0, 30.0]))

    def test_unfactored_rejects_batch(self, solver, layout):
        with pytest.raises(ValueError, match="single"):
            solver.solve_unfactored(np.zeros((2, layout.n_tiles)), 25.0)

    def test_stronger_package_cools_better(self, layout):
        weak = ThermalSolver(layout, ThermalPackage(1e-5, 2e-4))
        strong = ThermalSolver(layout, ThermalPackage(1e-3, 2e-4))
        power = np.full(layout.n_tiles, 1e-4)
        weak_rise = weak.solve(power, 25.0).mean() - 25.0
        strong_rise = strong.solve(power, 25.0).mean() - 25.0
        assert weak_rise > strong_rise


def _seed_conductance(layout, package):
    """The per-tile ``lil_matrix`` assembly the COO build must reproduce."""
    n = layout.n_tiles
    g_lat = package.g_lateral_w_per_k
    matrix = lil_matrix((n, n))
    for tile in layout.tiles():
        i = layout.tile_index(tile.x, tile.y)
        diag = package.g_vertical_w_per_k
        for nx, ny in layout.neighbors(tile.x, tile.y):
            matrix[i, layout.tile_index(nx, ny)] = -g_lat
            diag += g_lat
        matrix[i, i] = diag
    return csr_matrix(matrix)


class TestConductanceAssembly:
    @pytest.mark.parametrize("width, height", [(4, 4), (5, 9), (13, 6), (40, 40)])
    @pytest.mark.parametrize(
        "package",
        [
            ThermalPackage(),
            ThermalPackage(1e-6, 0.0),
            ThermalPackage(1e-3, 2e-4),
            ThermalPackage(3.3e-5, 1.7e-4),
        ],
        ids=["default", "no-lateral", "strong-sink", "odd"],
    )
    def test_matches_seed_loop_bitwise(self, width, height, package):
        layout = FabricLayout(ArchParams(), width, height)
        seed = _seed_conductance(layout, package)
        solver = ThermalSolver(layout, package)
        fast = solver._conductance
        np.testing.assert_array_equal(fast.indptr, seed.indptr)
        np.testing.assert_array_equal(fast.indices, seed.indices)
        np.testing.assert_array_equal(fast.data, seed.data)

        rng = np.random.default_rng(width * height)
        batch = rng.uniform(0.0, 1e-3, (4, layout.n_tiles))
        ambients = np.array([0.0, 25.0, 45.0, 70.0])
        rhs = batch + package.g_vertical_w_per_k * ambients[:, None]
        expected = np.asarray(splu(seed.tocsc()).solve(rhs.T)).T
        np.testing.assert_array_equal(solver.solve(batch, ambients), expected)


class TestSharedFactor:
    """One factor per (grid, package) per process, counted honestly."""

    def test_two_solvers_share_one_factor(self):
        # A grid and package no other test uses, so the first is a miss.
        layout = FabricLayout(ArchParams(), 11, 7)
        package = ThermalPackage(3.1e-5, 2.1e-4)
        sink = InMemorySink()
        with observe.enabled(sink=sink):
            first = ThermalSolver(layout, package)
            hits = observe.counter("thermal.factor_cache.hit")
            assert hits.value == 0
            second = ThermalSolver(FabricLayout(ArchParams(), 11, 7), package)
            assert hits.value == 1
        assert second._factor is first._factor
        assert second._conductance is first._conductance
        factorizations = [
            r for r in sink.spans() if r["name"] == "thermal.factorize"
        ]
        assert len(factorizations) == 1
        assert factorizations[0]["attrs"] == {"n_tiles": 77}

    def test_other_package_or_grid_gets_its_own_factor(self):
        layout = FabricLayout(ArchParams(), 10, 6)
        base = ThermalSolver(layout, ThermalPackage(3.2e-5, 2.2e-4))
        other_package = ThermalSolver(layout, ThermalPackage(3.2e-5, 2.3e-4))
        other_grid = ThermalSolver(
            FabricLayout(ArchParams(), 6, 10), ThermalPackage(3.2e-5, 2.2e-4)
        )
        assert other_package._factor is not base._factor
        assert other_grid._factor is not base._factor
        assert other_grid._factor is not other_package._factor

    def test_shared_conductance_is_read_only(self, solver):
        for array in (
            solver._conductance.data,
            solver._conductance.indices,
            solver._conductance.indptr,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestPackage:
    def test_rejects_nonpositive_vertical(self):
        with pytest.raises(ValueError):
            ThermalPackage(g_vertical_w_per_k=0.0)

    @pytest.mark.parametrize(
        "g_vertical, g_lateral",
        [
            (float("inf"), 2e-4),
            (float("nan"), 2e-4),
            (3e-5, float("nan")),
            (3e-5, float("inf")),
        ],
    )
    def test_rejects_non_finite_conductance(self, g_vertical, g_lateral):
        with pytest.raises(ValueError, match="finite"):
            ThermalPackage(g_vertical, g_lateral)
