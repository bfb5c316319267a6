"""Probabilistic switching-activity estimation (ACE 2.0 stand-in).

The paper estimates per-signal activities with ACE 2.0 and feeds them into
the dynamic power model (``p_dyn = 1/2 alpha C V^2 f``).  We reproduce the
same quantity — per-net switching activity ``alpha`` (transitions per clock
cycle) — with a lag-one probabilistic propagation:

- primary inputs switch with the benchmark's base activity;
- a K-LUT's output activity follows the mean of its input activities scaled
  by a generic Boolean attenuation factor (random logic neither preserves
  all input toggles nor amplifies them, and deeper logic filters glitches);
- a flip-flop passes activity through with lag-one filtering (a register
  can toggle at most once per cycle and absorbs glitches);
- BRAM/DSP outputs toggle with their (filtered) input activity.

Feedback through registers is handled by damped fixed-point iteration:
Gauss-Seidel sweeps in combinational order over a plain float list, with
every block's fan-in mean summed in numpy's own order (DESIGN.md §7,
"Scalar ACE kernel").

Activities do not depend on temperature, so Algorithm 1 needs one
estimate per design, not one per cell: the ``activity.memo``
(:mod:`repro.memo`) keys it by the netlist's structure
(:func:`_structure`) and the base activity, and the ``activity.estimate``
span opens only on a miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub
from typing import Tuple

import numpy as np

from repro import observe
from repro.memo import Memo
from repro.netlists.netlist import BlockType, Netlist

LUT_ATTENUATION = 0.80
"""Output-vs-mean-input activity ratio of random logic."""

FF_FILTER = 0.90
"""Glitch filtering of a register stage."""

HARD_BLOCK_FILTER = 0.75
"""Activity attenuation through BRAM/DSP datapaths."""

MAX_ITERATIONS = 60
CONVERGENCE = 1e-6
DAMPING = 0.7

_GAIN = {
    BlockType.INPUT: 1.0,
    BlockType.LUT: LUT_ATTENUATION,
    BlockType.FF: FF_FILTER,
}
"""Output-vs-mean-input gain per block type; BRAM/DSP take
``HARD_BLOCK_FILTER``."""

_PAIRWISE_BLOCK = 8
"""Fan-in below which numpy's pairwise summation is a plain left fold."""


@dataclass
class ActivityEstimate:
    """Per-net switching activities (transitions per cycle)."""

    netlist: Netlist
    alpha: np.ndarray
    """Indexed by net id."""
    iterations: int

    def of_net(self, net_id: int) -> float:
        return float(self.alpha[net_id])

    def mean(self) -> float:
        return float(self.alpha.mean()) if len(self.alpha) else 0.0


MEMO_SIZE = 32
"""Estimates kept per process: the VTR-19 suite at its base activities
with headroom; an entry is at most tens of kB."""

_memo: Memo[Tuple[np.ndarray, int]] = Memo("activity.memo", MEMO_SIZE)


def _structure(netlist: Netlist) -> tuple:
    """Everything :meth:`Netlist.validate` and the kernel read: each
    block's id, type, fan-in and driven nets, and each net's id, driver
    and sinks (names only label error messages)."""
    return (
        tuple([
            (block.id, block.type, tuple(block.input_nets),
             tuple(block.output_nets))
            for block in netlist.blocks
        ]),
        tuple([(net.id, net.driver, tuple(net.sinks)) for net in netlist.nets]),
    )


def estimate_activity(
    netlist: Netlist, base_activity: float = 0.15
) -> ActivityEstimate:
    """Estimate the switching activity of every net.

    ``base_activity`` is the primary-input toggle rate (the benchmark spec
    carries a per-design value).  The shared ``alpha`` is read-only.  Only
    netlists that passed :meth:`Netlist.validate` are stored, and the key
    fixes that outcome, so a hit skips the check.
    """
    if not (0.0 < base_activity <= 1.0):
        raise ValueError(f"base_activity must be in (0, 1], got {base_activity}")
    base_activity = float(base_activity)
    alpha, iterations = _memo.get(
        (_structure(netlist), base_activity),
        lambda: _estimate(netlist, base_activity),
    )
    return ActivityEstimate(netlist, alpha, iterations)


def _estimate(netlist: Netlist, base_activity: float) -> Tuple[np.ndarray, int]:
    """A memo miss: validate, then run the kernel under its span."""
    netlist.validate()
    with observe.span(
        "activity.estimate",
        netlist=netlist.name,
        n_nets=netlist.n_nets,
        base_activity=base_activity,
    ) as span:
        alpha, iterations = _gauss_seidel(netlist, base_activity)
        span.set_attrs(iterations=iterations)
    alpha.setflags(write=False)
    return alpha, iterations


def _gauss_seidel(
    netlist: Netlist, base_activity: float
) -> Tuple[np.ndarray, int]:
    """The kernel on a validated netlist: ``(alpha, iterations)``."""
    # One Gauss-Seidel step per non-OUTPUT block, in combinational order:
    # (gain, fan-in nets, driven nets).  An input pad has no fan-in, so its
    # mean is the base activity and a unit gain passes it through exactly.
    blocks = netlist.blocks
    steps = [
        (_GAIN.get(block.type, HARD_BLOCK_FILTER),
         tuple(block.input_nets), tuple(block.output_nets))
        for block in (blocks[i] for i in netlist.combinational_order())
        if block.type != BlockType.OUTPUT
    ]
    alpha = [base_activity] * netlist.n_nets
    keep = 1.0 - DAMPING

    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        previous = alpha.copy()
        for gain, inputs, outputs in steps:
            fanin = len(inputs)
            if not fanin:
                mean_in = base_activity
            elif fanin < _PAIRWISE_BLOCK:
                # numpy's pairwise sum is this left fold below 8 terms, so
                # the mean is bit-identical to np.mean; builtin sum() is
                # not (it compensates from Python 3.12 on).
                total = 0.0
                for net_id in inputs:
                    total += alpha[net_id]
                mean_in = total / fanin
            else:
                mean_in = float(np.mean([alpha[n] for n in inputs]))
            pull = DAMPING * min(max(gain * mean_in, 0.0), 1.0)
            for net_id in outputs:
                alpha[net_id] = pull + keep * alpha[net_id]
        if max(map(abs, map(sub, alpha, previous)), default=0.0) < CONVERGENCE:
            break

    return np.array(alpha, dtype=float), iterations
