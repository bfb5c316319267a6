"""repro.observe — unified tracing, metrics and event-log subsystem.

One observability layer for the whole flow: hierarchical **spans**
(trace-id/span-id, nesting, wall-clock start + monotonic duration,
structured attributes), a **metrics registry** (counters, gauges,
histograms), point-in-time **events**, and pluggable **sinks**
(:class:`InMemorySink` for tests, line-flushed :class:`JsonlSink` for
runs).  Everything is zero-cost when disabled: accessors collapse to
shared no-op singletons behind one ``is_enabled`` check, so Algorithm 1's
hot loop pays nothing in production.

Enable around any code, then read the trace back::

    from repro import observe

    with observe.enabled(jsonl_path="trace.jsonl"):
        result = thermal_aware_guardband(flow, fabric, t_ambient=25.0)

    # later: python -m repro.observe report trace.jsonl

Instrumented seams: ``core/guardband.py`` (one span per Algorithm 1
iteration, with convergence attributes), ``cad/flow.py`` (stage spans and
cache hit/miss/quarantine counters), every :mod:`repro.memo` (hit/miss/
evict counters), ``thermal/hotspot.py`` (per-solve spans) and
``runner/engine.py`` (job lifecycle spans/events).  Trace
context crosses the ``ProcessPoolExecutor`` boundary as a pickled
:class:`TraceContext`, so pool workers re-parent their spans under the
sweep's trace by appending to the same JSONL file.

The trace reader lives in :mod:`repro.observe.report` (kept out of this
facade so importing :mod:`repro.observe` never drags in the reporting
stack) and is exposed as ``python -m repro.observe report``.
"""

from repro.observe.context import TraceContext
from repro.observe.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.observe.runtime import (
    attach,
    counter,
    emit_span,
    enabled,
    event,
    gauge,
    histogram,
    is_enabled,
    propagation_context,
    span,
)
from repro.observe.sinks import FanoutSink, InMemorySink, JsonlSink, Sink
from repro.observe.spans import NULL_SPAN, Span, SpanLike

__all__ = [
    "Counter",
    "FanoutSink",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "NULL_SPAN",
    "Sink",
    "Span",
    "SpanLike",
    "TraceContext",
    "attach",
    "counter",
    "emit_span",
    "enabled",
    "event",
    "gauge",
    "histogram",
    "is_enabled",
    "propagation_context",
    "span",
]
