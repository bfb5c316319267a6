"""Tests for the netlist representation, generator and VTR suite."""

import pytest

from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import (
    SEQUENTIAL_TYPES,
    BlockType,
    Netlist,
)
from repro.netlists.vtr_suite import (
    VTR_BENCHMARKS,
    benchmark_names,
    vtr_benchmark,
)


def _logic_depth(netlist: Netlist) -> int:
    """Maximum number of LUTs on any register-to-register path."""
    depth = [0] * len(netlist.blocks)
    net_of = {n.id: n for n in netlist.nets}
    for block_id in netlist.combinational_order():
        block = netlist.blocks[block_id]
        base = 0 if block.type in SEQUENTIAL_TYPES else depth[block_id]
        bump = 1 if block.type == BlockType.LUT else 0
        for net_id in block.output_nets:
            for sink in net_of[net_id].sinks:
                sink_type = netlist.blocks[sink].type
                if sink_type in SEQUENTIAL_TYPES or sink_type == BlockType.OUTPUT:
                    continue
                depth[sink] = max(depth[sink], base + bump)
    luts = [b.id for b in netlist.blocks if b.type == BlockType.LUT]
    return max((depth[i] + 1 for i in luts), default=0)


class TestNetlistStructure:
    def test_add_and_connect(self):
        nl = Netlist("t")
        a = nl.add_block(BlockType.INPUT)
        b = nl.add_block(BlockType.LUT)
        net = nl.add_net(a)
        nl.connect(net, b)
        assert net.driver == a.id
        assert net.sinks == [b.id]
        assert b.input_nets == [net.id]
        nl.validate()

    def test_detects_combinational_cycle(self):
        nl = Netlist("cycle")
        l1 = nl.add_block(BlockType.LUT)
        l2 = nl.add_block(BlockType.LUT)
        n1 = nl.add_net(l1)
        n2 = nl.add_net(l2)
        nl.connect(n1, l2)
        nl.connect(n2, l1)
        with pytest.raises(ValueError, match="cycle"):
            nl.validate()

    def test_ff_breaks_cycle(self):
        nl = Netlist("reg-loop")
        lut = nl.add_block(BlockType.LUT)
        ff = nl.add_block(BlockType.FF)
        lut_out = nl.add_net(lut)
        nl.connect(lut_out, ff)
        ff_out = nl.add_net(ff)
        nl.connect(ff_out, lut)
        nl.validate()  # registered loop is fine

    def test_ff_single_input_enforced(self):
        nl = Netlist("bad-ff")
        a = nl.add_block(BlockType.INPUT)
        b = nl.add_block(BlockType.INPUT)
        ff = nl.add_block(BlockType.FF)
        nl.connect(nl.add_net(a), ff)
        nl.connect(nl.add_net(b), ff)
        with pytest.raises(ValueError, match="exactly 1 input"):
            nl.validate()

    def test_stats(self, tiny_netlist):
        stats = tiny_netlist.stats()
        assert stats["luts"] >= 24  # spec LUTs plus hard-block cones
        assert stats["brams"] == 1
        assert stats["dsps"] == 1
        assert stats["nets"] == tiny_netlist.n_nets


class TestGenerator:
    def test_deterministic(self, tiny_spec):
        a = generate_netlist(tiny_spec)
        b = generate_netlist(tiny_spec)
        assert a.stats() == b.stats()
        assert [n.sinks for n in a.nets] == [n.sinks for n in b.nets]

    def test_seed_changes_structure(self, tiny_spec):
        import dataclasses
        other = dataclasses.replace(tiny_spec, seed=tiny_spec.seed + 1)
        a = generate_netlist(tiny_spec)
        b = generate_netlist(other)
        assert [n.sinks for n in a.nets] != [n.sinks for n in b.nets]

    def test_every_net_driven_and_consumed(self, tiny_netlist):
        for net in tiny_netlist.nets:
            assert net.sinks, f"dangling net {net.name}"

    def test_lut_fanin_bounded(self, tiny_netlist):
        for block in tiny_netlist.blocks_of_type(BlockType.LUT):
            assert 1 <= len(block.input_nets) <= 6

    def test_depth_tracks_spec(self):
        shallow = generate_netlist(NetlistSpec("s", n_luts=60, depth=3, seed=3))
        deep = generate_netlist(NetlistSpec("d", n_luts=60, depth=12, seed=3))
        assert _logic_depth(deep) > _logic_depth(shallow)

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            NetlistSpec("x", n_luts=0)
        with pytest.raises(ValueError):
            NetlistSpec("x", n_luts=10, ff_ratio=1.5)
        with pytest.raises(ValueError):
            NetlistSpec("x", n_luts=10, base_activity=0.0)

    def test_dsp_chains_exist(self):
        nl = generate_netlist(NetlistSpec("dspy", n_luts=20, n_dsps=4, seed=9))
        dsp_ids = {b.id for b in nl.blocks_of_type(BlockType.DSP)}
        chained = any(
            set(net.sinks) & dsp_ids
            for net in nl.nets
            if nl.blocks[net.driver].type == BlockType.DSP
        )
        assert chained


class TestVtrSuite:
    def test_nineteen_benchmarks(self):
        assert len(VTR_BENCHMARKS) == 19
        assert len(set(benchmark_names())) == 19

    def test_paper_order(self):
        names = benchmark_names()
        assert names[0] == "bgm"
        assert names[-1] == "stereovision3"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown VTR benchmark"):
            vtr_benchmark("quicksort")

    def test_cached(self):
        assert vtr_benchmark("sha") is vtr_benchmark("sha")

    def test_mix_character(self):
        specs = {s.name: s for s in VTR_BENCHMARKS}
        # DSP-heavy and BRAM-heavy benchmarks keep their published character.
        assert specs["stereovision2"].n_dsps > 20
        assert specs["mkPktMerge"].n_brams >= 3
        assert specs["sha"].n_brams == 0 and specs["sha"].n_dsps == 0
        assert specs["mcml"].n_luts == max(s.n_luts for s in VTR_BENCHMARKS)

    def test_scaled_sizes_tractable(self):
        for spec in VTR_BENCHMARKS:
            assert spec.n_luts <= 1000
