"""Golden switching activities: the ACE kernel must reproduce them bit for
bit.

``tests/data/golden_activity.json`` holds, for every VTR-19 design at its
suite ``base_activity``, at 0.05 and at 1.0, the iteration count and the
sha256 of ``alpha.tobytes()`` produced by the numpy-per-block
Gauss-Seidel loop as it stood at commit ``5329ae3`` (before the scalar
kernel).  The suite covers BRAM fan-in 13 (``mkSMAdapter4B``) and DSP
fan-in 9 (``diffeq1``), so both sides of the fan-in-8 split between the
explicit left fold and ``np.mean`` are pinned.  A ``hypothesis`` property
additionally compares the kernel, exactly, with a copy of that loop kept
below (:func:`_numpy_loop`) over random :class:`NetlistSpec` designs.
Every case empties the activity memo first (:func:`_cold_estimate`), so
the goldens pin the kernel, never a stored result.

Record (only when a change is *meant* to move modelled activities) from
the repo root; ``PYTHONPATH`` picks the source tree the goldens come
from.  The committed file was recorded with::

    mkdir -p /tmp/parent && git archive 5329ae3 | tar -x -C /tmp/parent
    PYTHONPATH=/tmp/parent/src python tests/test_activity_golden.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.activity import ace
from repro.activity.ace import estimate_activity
from repro.memo import MEMOS
from repro.netlists.generator import NetlistSpec, generate_netlist
from repro.netlists.netlist import BlockType, Netlist
from repro.netlists.vtr_suite import VTR_BENCHMARKS, vtr_benchmark

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_activity.json"

EXTRA_BASES = (0.05, 1.0)
"""Base activities recorded for every design besides its suite value."""


def _cases() -> Tuple[Tuple[str, float], ...]:
    return tuple(
        (spec.name, base)
        for spec in VTR_BENCHMARKS
        for base in (spec.base_activity,) + EXTRA_BASES
    )


def _key(name: str, base: float) -> str:
    return f"{name}@{base!r}"


def _digest(alpha: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(alpha).tobytes()).hexdigest()


def _cold_estimate(netlist: Netlist, base: float) -> ace.ActivityEstimate:
    """:func:`estimate_activity` with the memo emptied: the kernel runs."""
    MEMOS["activity.memo"].clear()
    return estimate_activity(netlist, base)


def record() -> Dict[str, Dict[str, object]]:
    data: Dict[str, Dict[str, object]] = {}
    for name, base in _cases():
        estimate = _cold_estimate(vtr_benchmark(name), base)
        data[_key(name, base)] = {
            "iterations": estimate.iterations,
            "alpha_sha256": _digest(estimate.alpha),
        }
    return data


@pytest.fixture(scope="module")
def golden() -> Dict[str, Dict[str, object]]:
    return json.loads(GOLDEN_PATH.read_text())


def _numpy_loop(netlist: Netlist, base_activity: float) -> Tuple[np.ndarray, int]:
    """The pre-scalar kernel, verbatim: a numpy array indexed one element
    at a time and ``np.mean`` over every block's fan-in (test-only
    reference for the exactness property)."""
    alpha = np.full(netlist.n_nets, base_activity)
    order = netlist.combinational_order()
    iterations = 0
    for iteration in range(1, ace.MAX_ITERATIONS + 1):
        iterations = iteration
        previous = alpha.copy()
        for block_id in order:
            block = netlist.blocks[block_id]
            if block.type == BlockType.INPUT:
                out = base_activity
            elif block.type == BlockType.OUTPUT:
                continue
            else:
                if block.input_nets:
                    mean_in = float(np.mean([alpha[n] for n in block.input_nets]))
                else:
                    mean_in = base_activity
                if block.type == BlockType.LUT:
                    out = ace.LUT_ATTENUATION * mean_in
                elif block.type == BlockType.FF:
                    out = ace.FF_FILTER * mean_in
                else:  # BRAM / DSP
                    out = ace.HARD_BLOCK_FILTER * mean_in
            out = min(max(out, 0.0), 1.0)
            for net_id in block.output_nets:
                alpha[net_id] = (
                    ace.DAMPING * out + (1.0 - ace.DAMPING) * alpha[net_id]
                )
        if float(np.max(np.abs(alpha - previous))) < ace.CONVERGENCE:
            break
    return alpha, iterations


def _max_fanin(name: str, block_type: BlockType) -> int:
    return max(
        len(b.input_nets) for b in vtr_benchmark(name).blocks_of_type(block_type)
    )


class TestGoldenActivity:
    def test_covers_both_sides_of_the_fold_split(self):
        assert _max_fanin("mkSMAdapter4B", BlockType.BRAM) == 13
        assert _max_fanin("diffeq1", BlockType.DSP) == 9

    def test_golden_covers_every_case(self, golden):
        assert set(golden) == {_key(name, base) for name, base in _cases()}

    @pytest.mark.parametrize("name,base", _cases(), ids=lambda v: str(v))
    def test_matches_golden(self, golden, name, base):
        estimate = _cold_estimate(vtr_benchmark(name), base)
        want = golden[_key(name, base)]
        assert estimate.iterations == want["iterations"]
        assert _digest(estimate.alpha) == want["alpha_sha256"]


class TestMatchesNumpyLoop:
    @given(
        n_luts=st.integers(min_value=1, max_value=60),
        n_brams=st.integers(min_value=0, max_value=4),
        n_dsps=st.integers(min_value=0, max_value=4),
        depth=st.integers(min_value=1, max_value=8),
        lut_inputs=st.integers(min_value=2, max_value=10),
        ff_ratio=st.floats(min_value=0.0, max_value=1.0),
        base=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical(
        self, n_luts, n_brams, n_dsps, depth, lut_inputs, ff_ratio, base, seed
    ):
        netlist = generate_netlist(
            NetlistSpec(
                "prop", n_luts=n_luts, n_brams=n_brams, n_dsps=n_dsps,
                depth=depth, lut_inputs=lut_inputs, ff_ratio=ff_ratio,
                base_activity=base, seed=seed,
            )
        )
        want_alpha, want_iterations = _numpy_loop(netlist, base)
        estimate = _cold_estimate(netlist, base)
        assert estimate.iterations == want_iterations
        assert estimate.alpha.dtype == want_alpha.dtype
        assert estimate.alpha.tobytes() == want_alpha.tobytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    GOLDEN_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
