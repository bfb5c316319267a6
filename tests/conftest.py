"""Shared fixtures: one architecture, fabric and small routed design."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.params import ArchParams
from repro.cad.flow import FlowResult, run_flow
from repro.coffe.fabric import Fabric, build_fabric
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import Netlist


@pytest.fixture(scope="session")
def arch() -> ArchParams:
    return ArchParams()


@pytest.fixture(scope="session")
def fabric25(arch: ArchParams) -> Fabric:
    """The paper's base device: sized and characterized at 25 C."""
    return build_fabric(25.0, arch)


@pytest.fixture(scope="session")
def fabric70(arch: ArchParams) -> Fabric:
    return build_fabric(70.0, arch)


def _coffe_memos():
    """Every per-process COFFE memo, from the registry."""
    return [memo for name, memo in MEMOS.items() if name.startswith("coffe.")]


def _clear_coffe() -> None:
    for memo in _coffe_memos():
        memo.clear()


@pytest.fixture()
def cold_coffe():
    """Empty every COFFE memo for the test, then put the session's back.

    The fixture's value empties them again, for a second cold build.
    """
    saved = [(memo, memo.items()) for memo in _coffe_memos()]
    _clear_coffe()
    yield _clear_coffe
    for memo, entries in saved:
        memo.clear()
        for key, value in entries:
            memo.put(key, value)


@pytest.fixture(scope="session")
def tiny_spec() -> NetlistSpec:
    return NetlistSpec(
        "tiny", n_luts=24, n_brams=1, n_dsps=1, depth=5, seed=42,
        base_activity=0.2,
    )


@pytest.fixture(scope="session")
def tiny_netlist(tiny_spec: NetlistSpec) -> Netlist:
    return generate_netlist(tiny_spec)


@pytest.fixture(scope="session")
def tiny_flow(tiny_netlist: Netlist, arch: ArchParams) -> FlowResult:
    """A small placed-and-routed design shared across CAD/core tests."""
    return run_flow(tiny_netlist, arch, seed=11)


@pytest.fixture()
def uniform_25(tiny_flow: FlowResult) -> np.ndarray:
    return np.full(tiny_flow.n_tiles, 25.0)
