"""The one place the codebase reads clocks.

The determinism invariant (the ``determinism`` rule in
:mod:`repro.analysis`) is that every flow result is a pure function of
``(netlist, arch, seed)``; a clock read anywhere near the computation is
how timing quietly leaks into results.  All wall-clock and monotonic
reads are therefore confined to this module, and the rest of the
codebase imports
:func:`wall` / :func:`monotonic` from here for observability-only
timestamps, durations and timeouts.
"""

from __future__ import annotations

import time


def wall() -> float:
    """Seconds since the epoch — trace-alignment timestamps only."""
    return time.time()


def monotonic() -> float:
    """High-resolution monotonic seconds — durations and timeouts only."""
    return time.perf_counter()
