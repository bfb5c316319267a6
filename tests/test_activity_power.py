"""Tests for activity estimation and the per-tile power model."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.arch.layout import TileType
from repro.power.model import PowerModel, RESOURCES, tile_inventory
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import Block, BlockType, Netlist


@pytest.fixture(scope="module")
def activity(tiny_netlist):
    return estimate_activity(tiny_netlist, base_activity=0.2)


@pytest.fixture(scope="module")
def power(tiny_flow, fabric25, activity):
    return PowerModel(tiny_flow, fabric25, activity)


class TestActivity:
    def test_all_activities_in_unit_interval(self, activity):
        assert np.all(activity.alpha >= 0.0)
        assert np.all(activity.alpha <= 1.0)

    def test_primary_inputs_at_base(self, activity, tiny_netlist):
        for pi in tiny_netlist.blocks_of_type(BlockType.INPUT):
            for net_id in pi.output_nets:
                assert activity.of_net(net_id) == pytest.approx(0.2, rel=1e-3)

    def test_logic_attenuates(self, activity, tiny_netlist):
        # Deep LUT outputs should switch less than the primary inputs.
        lut_alphas = [
            activity.of_net(net_id)
            for lut in tiny_netlist.blocks_of_type(BlockType.LUT)
            for net_id in lut.output_nets
        ]
        assert np.mean(lut_alphas) < 0.2

    def test_higher_base_more_activity(self, tiny_netlist):
        low = estimate_activity(tiny_netlist, 0.05).mean()
        high = estimate_activity(tiny_netlist, 0.4).mean()
        assert high > low

    def test_converges(self, activity):
        assert activity.iterations < 60

    def test_rejects_bad_base(self, tiny_netlist):
        with pytest.raises(ValueError):
            estimate_activity(tiny_netlist, 0.0)

    def test_handles_registered_loops(self):
        nl = generate_netlist(
            NetlistSpec("loopy", n_luts=30, depth=4, ff_ratio=0.9, seed=8)
        )
        estimate = estimate_activity(nl, 0.3)
        assert np.all(np.isfinite(estimate.alpha))

    def test_netlist_without_nets(self):
        nl = Netlist("empty")
        nl.add_block(BlockType.OUTPUT)
        nl.validate()
        estimate = estimate_activity(nl, 0.3)
        assert estimate.alpha.shape == (0,)
        assert estimate.iterations == 1
        assert estimate.mean() == 0.0


class TestTileInventory:
    def test_clb_inventory_matches_paper_tile_area(self, arch, fabric25):
        # Paper Sec. IV-A: a soft-fabric tile is ~1196 um^2.  Our inventory
        # times Table II areas should land near it.
        inventory = tile_inventory(arch, TileType.CLB)
        area = sum(
            count * fabric25.area_um2(name) for name, count in inventory.items()
        )
        assert area == pytest.approx(1196.0, rel=0.15)

    def test_hard_tiles_have_their_block(self, arch):
        assert tile_inventory(arch, TileType.BRAM)["bram"] == 1.0
        assert tile_inventory(arch, TileType.DSP)["dsp"] == 1.0

    def test_empty_tile_empty(self, arch):
        assert tile_inventory(arch, TileType.EMPTY) == {}

    def test_only_known_resources(self, arch):
        for type_ in TileType:
            assert set(tile_inventory(arch, type_)) <= set(RESOURCES)


def _fold_splitting_values(rng, n_values):
    """Activities whose left-fold mean differs from ``np.mean`` once numpy
    sums pairwise (8 terms and up), so the test sees the fold boundary."""
    while True:
        values = (rng.random(n_values) * 10.0 ** rng.integers(-3, 1, n_values)).tolist()
        total = 0.0
        for value in values:
            total += value
        if n_values < 8 or total / n_values != np.mean(values):
            return values


class TestPowerModelBuild:
    def test_counts_are_the_per_tile_inventory(self, power, tiny_flow):
        layout = tiny_flow.layout
        expected = np.zeros((len(RESOURCES), layout.n_tiles))
        for tile in layout.tiles():
            index = layout.tile_index(tile.x, tile.y)
            for name, count in tile_inventory(tiny_flow.arch, tile.type).items():
                expected[RESOURCES.index(name), index] = count
        np.testing.assert_array_equal(power._counts, expected)
        assert power._counts.flags.c_contiguous

    @pytest.mark.parametrize("side", ["output_nets", "input_nets"])
    @pytest.mark.parametrize("fanin", [7, 8, 9])
    def test_block_activity_is_np_mean_bitwise(
        self, tiny_flow, fabric25, side, fanin
    ):
        resources = {BlockType.LUT: "lut", BlockType.BRAM: "bram", BlockType.DSP: "dsp"}
        rng = np.random.default_rng(fanin)
        alpha, blocks = [], []
        for block_id, block_type in enumerate(resources):
            nets = list(range(len(alpha), len(alpha) + fanin))
            alpha += _fold_splitting_values(rng, fanin)
            blocks.append(Block(block_id, block_type, f"b{block_id}", **{side: nets}))
        flow = SimpleNamespace(
            arch=tiny_flow.arch,
            layout=tiny_flow.layout,
            netlist=SimpleNamespace(blocks=blocks),
            timing=SimpleNamespace(
                net_power_elements={}, sink_elements={}, block_tile=[1, 2, 3]
            ),
        )
        model = PowerModel(flow, fabric25, ActivityEstimate(None, np.array(alpha), 1))
        for block in blocks:
            resource = resources[block.type]
            expected = float(np.mean([alpha[n] for n in getattr(block, side)]))
            assert model._dyn_alphas[resource].tolist() == [expected]
            assert model._dyn_tiles[resource].tolist() == [block.id + 1]


class TestPowerModel:
    def test_leakage_positive_everywhere_active(self, power, tiny_flow):
        leak = power.leakage_power(np.full(tiny_flow.n_tiles, 25.0))
        layout = tiny_flow.layout
        for tile in layout.tiles():
            index = layout.tile_index(tile.x, tile.y)
            if tile.type != TileType.EMPTY:
                assert leak[index] > 0.0

    def test_leakage_grows_with_temperature(self, power, tiny_flow):
        cold = power.leakage_power(np.full(tiny_flow.n_tiles, 0.0)).sum()
        hot = power.leakage_power(np.full(tiny_flow.n_tiles, 100.0)).sum()
        assert hot > 2.0 * cold

    def test_dynamic_scales_with_frequency(self, power):
        p1 = power.dynamic_power(100e6).sum()
        p2 = power.dynamic_power(200e6).sum()
        assert p2 == pytest.approx(2.0 * p1, rel=1e-9)

    def test_dynamic_zero_at_zero_frequency(self, power):
        assert power.dynamic_power(0.0).sum() == 0.0

    def test_dynamic_rejects_negative_frequency(self, power):
        with pytest.raises(ValueError):
            power.dynamic_power(-1.0)

    def test_dynamic_concentrated_on_used_tiles(self, power, tiny_flow):
        dyn = power.dynamic_power(200e6)
        assert (dyn > 0).sum() < tiny_flow.n_tiles  # some tiles are idle

    def test_evaluate_combines(self, power, tiny_flow):
        t = np.full(tiny_flow.n_tiles, 40.0)
        breakdown = power.evaluate(150e6, t)
        assert breakdown.total_watts == pytest.approx(
            breakdown.dynamic_w.sum() + breakdown.leakage_w.sum()
        )

    def test_per_tile_vector_shapes(self, power, tiny_flow):
        t = np.full(tiny_flow.n_tiles, 40.0)
        breakdown = power.evaluate(150e6, t)
        assert breakdown.dynamic_w.shape == (tiny_flow.n_tiles,)
        assert breakdown.leakage_w.shape == (tiny_flow.n_tiles,)

    def test_wrong_temperature_length_rejected(self, power):
        with pytest.raises(ValueError):
            power.leakage_power(np.full(2, 25.0))
