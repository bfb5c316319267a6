"""The power model's per-flow incidence against the seed's per-resource loops.

:class:`~repro.power.model.PowerModel` derives which ``(resource, tile)``
cell each dynamic-power user lands on once per placed flow
(:func:`~repro.power.model.power_incidence`) and builds its activity
matrix with one ``np.bincount``.  The oracle below is the seed's build,
written out here: per-resource user lists, ``np.add.at`` per resource,
a per-block mean and the per-tile inventory.  Every table must match it
byte for byte, and neither the incidence nor the per-flow tables built
from it may reach a pickled flow.
"""

from __future__ import annotations

import dataclasses
import pickle
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.activity.ace import ActivityEstimate, estimate_activity
from repro.cad.flow import run_flow
from repro.core.guardband import GuardbandConfig, thermal_aware_guardband
from repro.core.margins import worst_case_frequency
from repro.netlists.netlist import BlockType
from repro.netlists.vtr_suite import vtr_benchmark
from repro.power.model import (
    POWER_TABLES_PER_FLOW, RESOURCES, PowerModel, tile_inventory,
)

_BLOCK_RESOURCE = {
    BlockType.LUT: "lut", BlockType.BRAM: "bram", BlockType.DSP: "dsp",
}


def _seed_tables(flow, fabric, alpha: List[float]):
    """The seed build: ``(dyn_tiles, dyn_alphas, alpha_matrix, counts,
    leak_table)`` from per-resource Python loops."""
    layout = flow.layout
    n_tiles = layout.n_tiles
    counts = np.zeros((len(RESOURCES), n_tiles))
    for index, tile in enumerate(layout.tiles()):
        for name, count in tile_inventory(flow.arch, tile.type).items():
            counts[RESOURCES.index(name), index] = count

    users: Dict[str, Tuple[List[int], List[float]]] = {
        name: ([], []) for name in RESOURCES
    }
    timing = flow.timing
    for net_id, elements in timing.net_power_elements.items():
        for resource, tile in elements:
            users[resource][0].append(tile)
            users[resource][1].append(alpha[net_id])
    for (net_id, _sink), elements in timing.sink_elements.items():
        if elements and elements[0][0] == "feedback_mux":
            for resource, tile in elements:
                users[resource][0].append(tile)
                users[resource][1].append(alpha[net_id])
    for block in flow.netlist.blocks:
        resource = _BLOCK_RESOURCE.get(block.type)
        if resource is None:
            continue
        nets = block.output_nets or block.input_nets
        block_alpha = float(np.mean([alpha[n] for n in nets])) if nets else 0.0
        users[resource][0].append(timing.block_tile[block.id])
        users[resource][1].append(block_alpha)

    dyn_tiles = {name: np.asarray(t, dtype=int) for name, (t, _) in users.items()}
    dyn_alphas = {name: np.asarray(a) for name, (_, a) in users.items()}
    alpha_matrix = np.zeros((len(RESOURCES), n_tiles))
    for i, name in enumerate(RESOURCES):
        if len(dyn_tiles[name]):
            np.add.at(alpha_matrix[i], dyn_tiles[name], dyn_alphas[name])
    leak_table = counts.T @ np.vstack(
        [fabric.resources[name].leakage_w for name in RESOURCES]
    )
    return dyn_tiles, dyn_alphas, alpha_matrix, counts, leak_table


@pytest.fixture(scope="module", params=["tiny", "sha", "mkSMAdapter4B", "diffeq1"])
def flow(request, tiny_flow, arch):
    if request.param == "tiny":
        return tiny_flow
    return run_flow(vtr_benchmark(request.param), arch)


class TestIncidenceMatchesSeedLoops:
    def test_tables_are_byte_identical(self, flow, fabric25):
        activity = estimate_activity(flow.netlist, 0.2)
        model = PowerModel(flow, fabric25, activity)
        dyn_tiles, dyn_alphas, alpha_matrix, counts, leak_table = _seed_tables(
            flow, fabric25, activity.alpha.tolist()
        )
        assert model._alpha_matrix.shape == alpha_matrix.shape
        assert model._alpha_matrix.tobytes() == alpha_matrix.tobytes()
        assert model._counts.tobytes() == counts.tobytes()
        assert model._counts.flags.c_contiguous
        assert model._leak_table.tobytes() == leak_table.tobytes()
        # The seed layout dynamic_power_reference reads, derived lazily.
        for name in RESOURCES:
            assert model._dyn_tiles[name].tolist() == dyn_tiles[name].tolist()
            assert model._dyn_alphas[name].tobytes() == dyn_alphas[name].tobytes()


class TestIncidenceIsDerived:
    def test_built_once_per_flow(self, tiny_flow, fabric25, fabric70):
        activity = estimate_activity(tiny_flow.netlist, 0.2)
        first = PowerModel(tiny_flow, fabric25, activity)
        second = PowerModel(tiny_flow, fabric70, estimate_activity(tiny_flow.netlist, 0.3))
        assert first._incidence is second._incidence
        assert not first._incidence.flat.flags.writeable
        assert not first._counts.flags.writeable

    def test_never_reaches_a_pickled_flow(self, tiny_flow, fabric25):
        fresh = pickle.loads(pickle.dumps(tiny_flow))
        assert getattr(fresh.timing, "_power_incidence", None) is None
        before = pickle.dumps(fresh)
        for ambient in (25.0, 70.0):
            thermal_aware_guardband(fresh, fabric25, ambient)
        assert fresh.timing._power_incidence is not None
        assert pickle.dumps(fresh) == before

    def test_unpickled_flow_rebuilds_it_on_first_model(self, tiny_flow, fabric25):
        activity = estimate_activity(tiny_flow.netlist, 0.2)
        warm = PowerModel(tiny_flow, fabric25, activity)
        loaded = pickle.loads(pickle.dumps(tiny_flow))
        assert getattr(loaded.timing, "_power_incidence", None) is None
        cold = PowerModel(loaded, fabric25, activity)
        assert cold._alpha_matrix.tobytes() == warm._alpha_matrix.tobytes()
        assert cold._leak_table.tobytes() == warm._leak_table.tobytes()


class TestTablesArePerFlow:
    """A power model's tables are built once per (flow, fabric, activity
    array) and kept on ``flow.timing`` as ``_power_tables``: at most
    ``POWER_TABLES_PER_FLOW`` sets, never pickled."""

    TABLES = ("_user_alphas", "_alpha_matrix", "_pdyn_base", "_leak_table")

    @pytest.fixture()
    def fresh(self, tiny_flow):
        """A copy of ``tiny`` with no derived state yet."""
        return pickle.loads(pickle.dumps(tiny_flow))

    @staticmethod
    def arrays(model):
        return [getattr(model, name) for name in TestTablesArePerFlow.TABLES] + list(
            model._tables.leak_split
        )

    def test_second_model_reuses_the_cold_build(self, fresh, tiny_flow, fabric25):
        activity = estimate_activity(fresh.netlist, 0.2)
        first = PowerModel(fresh, fabric25, activity)
        second = PowerModel(fresh, fabric25, estimate_activity(fresh.netlist, 0.2))
        cold = PowerModel(pickle.loads(pickle.dumps(tiny_flow)), fabric25, activity)
        for reused, own, built in zip(
            self.arrays(second), self.arrays(first), self.arrays(cold)
        ):
            assert reused is own
            assert reused is not built
            assert reused.dtype == built.dtype and reused.shape == built.shape
            assert reused.tobytes() == built.tobytes()
            assert not reused.flags.writeable
        assert len(fresh.timing._power_tables) == 1

    def test_another_fabric_builds_its_own(self, fresh, fabric25, fabric70):
        activity = estimate_activity(fresh.netlist, 0.2)
        d25 = PowerModel(fresh, fabric25, activity)
        d70 = PowerModel(fresh, fabric70, activity)
        assert d70._tables is not d25._tables
        assert d70._leak_table is not d25._leak_table
        assert d70._leak_table.tobytes() != d25._leak_table.tobytes()
        assert PowerModel(fresh, fabric25, activity)._tables is d25._tables

    def test_another_activity_builds_its_own(self, fresh, fabric25):
        low = PowerModel(fresh, fabric25, estimate_activity(fresh.netlist, 0.2))
        high = PowerModel(fresh, fabric25, estimate_activity(fresh.netlist, 0.3))
        assert high._tables is not low._tables
        assert high._alpha_matrix.tobytes() != low._alpha_matrix.tobytes()

    def test_writable_activity_is_never_kept(self, fresh, fabric25):
        alpha = np.array(estimate_activity(fresh.netlist, 0.2).alpha)
        activity = ActivityEstimate(fresh.netlist, alpha, 1)
        first = PowerModel(fresh, fabric25, activity)
        alpha[:] = 0.5
        second = PowerModel(fresh, fabric25, activity)
        assert second._alpha_matrix.tobytes() != first._alpha_matrix.tobytes()
        assert getattr(fresh.timing, "_power_tables", None) is None

    def test_slot_holds_at_most_two_sets(self, fresh, fabric25, fabric70):
        activity = estimate_activity(fresh.netlist, 0.2)
        fabrics = [fabric25, fabric70, dataclasses.replace(fabric25)]
        for fabric in fabrics + fabrics[:1]:
            PowerModel(fresh, fabric, activity)
            assert len(fresh.timing._power_tables) <= POWER_TABLES_PER_FLOW
        assert POWER_TABLES_PER_FLOW == 2
        kept = [tables.fabric for tables in fresh.timing._power_tables]
        assert kept[0] is fabric25 and kept[1] is fabrics[2]

    def test_never_reaches_a_pickled_flow(self, fresh, fabric25, fabric70):
        before = pickle.dumps(fresh)
        energy = GuardbandConfig(
            mode="energy", target_frequency_hz=worst_case_frequency(fresh, fabric25)
        )
        thermal_aware_guardband(fresh, fabric25, 25.0)
        thermal_aware_guardband(fresh, fabric70, 70.0)
        thermal_aware_guardband(fresh, fabric25, 25.0, config=energy)
        assert len(fresh.timing._power_tables) == 2
        assert pickle.dumps(fresh) == before
