"""Host-speed probe: report host times at one fixed reference speed.

On a shared host the CPU speed a process gets can change by half or more
for seconds at a time, in wall and thread CPU time alike, so no choice
of clock removes it.  The benchmark therefore runs a small fixed kernel
(benchmark code, independent of ``repro``) every ``INTERVAL_S`` while it
measures, from a ``SIGALRM`` handler, and rescales every measured
interval by

    REFERENCE_PROBE_S / (average probe time around the interval)

Every reported host time is thus "seconds on a host where the probe
takes ``REFERENCE_PROBE_S``".  A change to the program moves the scaled
time exactly as much as the raw time; a change in host speed moves the
probe and the operation together and cancels.  Intervals are read from
:meth:`HostSpeed.now`, a clock that stops while a probe runs, so probes
never count as op time.  Where the program runs threads of its own in
the process, :meth:`HostSpeed.quiet` moves the probe to the end of the
block, when they are idle.  Measured on a 2-core Xeon: raw cell latency
swung between 6.7 and 12.0 ms while the ratio of cell to probe time
stayed within 2%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, List

import numpy as np

REFERENCE_PROBE_S = 1.0e-3
"""The probe's time on the reference host (about its time on a quiet
2-core Xeon), so scaled times read close to raw ones there."""

INTERVAL_S = 0.1
"""Wall time between probes while sampling."""

WINDOW_S = 0.2
"""Probes up to this long before or after an interval count for it, so
even a short op has a few."""


def kernel() -> float:
    """A fixed mix of interpreter work and small-array numpy calls, the
    two kinds of work the program's hot paths do."""
    table: dict = {}
    acc = 0
    for i in range(3000):
        key = i & 511
        table[key] = table.get(key, 0) + i
        acc += (i * 7) % 13
    ranked = sorted(table.items(), key=lambda item: -item[1])
    values = np.linspace(0.0, 1.0, 81)
    for _ in range(150):
        values = np.sqrt(values * 1.0001 + 1.0) - 0.5
        acc += float(values.max())
    return acc + len(ranked)


class HostSpeed:
    """Timestamped probe samples and the scale they give an interval."""

    def __init__(self) -> None:
        self.times: List[float] = []
        """Each probe's time on the :meth:`now` clock."""
        self.durations: List[float] = []
        self.probing_s = 0.0
        self._timer = False
        """Whether :meth:`sampling` has the probe timer running."""

    def now(self) -> float:
        """``perf_counter()`` less the time spent in probes so far."""
        return perf_counter() - self.probing_s

    def probe(self) -> None:
        """Time one warm run of the kernel.

        The first, untimed run reloads the kernel's code and data into
        caches the op just used, so the probe measures the host rather
        than how much of the cache the op happened to evict.
        """
        begin = perf_counter()
        kernel()
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.probing_s += end - begin
        self.times.append(end - self.probing_s)
        self.durations.append(end - start)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every ``INTERVAL_S`` of wall time while the block runs,
        except inside :meth:`quiet`.

        The handler runs in the main thread between bytecodes.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._timer = True
        try:
            yield
        finally:
            self._timer = False
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def quiet(self) -> Iterator[None]:
        """Probe after the block rather than during it.

        For a block in which the program runs threads of its own in this
        process (the in-process service's scheduler and store threads): a
        probe there would wait for the GIL behind them, so the program's
        own work would slow the probe and cancel out of the scaled times.
        The block must leave those threads idle; the probe at its end
        then measures the host alone.
        """
        timer = self._timer
        if timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        try:
            yield
        finally:
            self.probe()
            if timer:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def scale(self, start: float, end: float,
              window: float = WINDOW_S) -> float:
        """Reference speed over the host speed around [start, end]
        (times on the :meth:`now` clock), from the probes up to
        ``window`` seconds before or after it.

        A short interval takes the median of its few probes, robust to
        one probe caught by an interrupt; a long one the mean of the
        middle 80%, which weighs the host's states by their share of
        the interval when the speed changes midway.
        """
        low = bisect.bisect_left(self.times, start - window)
        high = bisect.bisect_right(self.times, end + window)
        near = sorted(self.durations[low:high])
        if not near:  # no probe close by: take the nearest one
            middle = (start + end) / 2
            nearest = min(range(len(self.times)),
                          key=lambda i: abs(self.times[i] - middle))
            near = [self.durations[nearest]]
        if len(near) < 10:
            return REFERENCE_PROBE_S / statistics.median(near)
        trim = len(near) // 10
        return REFERENCE_PROBE_S / statistics.fmean(near[trim:-trim])

    def scaled(self, start: float, seconds: float,
               elasticity: float = 1.0, window: float = WINDOW_S) -> float:
        """``seconds`` measured from ``start``, at the reference speed.

        ``elasticity`` is how much of the probe's change in speed the
        timed work follows (the slope of log op time over log probe time
        across host states): 1 for work like the probe's, less for work
        partly spent in the kernel, in IPC or waiting on other processes.
        """
        factor = self.scale(start, start + seconds, window)
        return seconds * factor ** elasticity

    def median_scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.median(self.durations)
