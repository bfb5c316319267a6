"""The power model's per-flow incidence against the seed's per-resource loops.

:class:`~repro.power.model.PowerModel` derives which ``(resource, tile)``
cell each dynamic-power user lands on once per placed flow
(:func:`~repro.power.model.power_incidence`) and builds its activity
matrix with one ``np.bincount``.  The oracle below is the seed's build,
written out here: per-resource user lists, ``np.add.at`` per resource,
a per-block mean and the per-tile inventory.  Every table must match it
byte for byte, and the incidence must never reach a pickled flow.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.activity.ace import estimate_activity
from repro.cad.flow import run_flow
from repro.core.guardband import thermal_aware_guardband
from repro.netlists.netlist import BlockType
from repro.netlists.vtr_suite import vtr_benchmark
from repro.power.model import (
    RESOURCES, PowerModel, tile_inventory,
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
