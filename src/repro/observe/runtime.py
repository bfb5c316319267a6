"""Session lifecycle and the public instrumentation accessors.

One process holds at most one active observability session
(:data:`_SESSION`).  :func:`enabled` opens one — or ref-counts into the
existing one, so the outermost caller owns the sink; :func:`attach` is
the worker-side variant that joins a trace shipped across the
``ProcessPoolExecutor`` boundary as a
:class:`~repro.observe.context.TraceContext`.  Every public accessor
(:func:`span`, :func:`event`, :func:`counter`, ...) collapses to a cheap
no-op when no session is active, so instrumentation is effectively free
in production runs.

Single-threaded by design: the engine and each pool worker drive their
session from one thread, so the span stack is a plain list.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro.observe import clock
from repro.observe.context import TraceContext, new_span_id, new_trace_id
from repro.observe.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observe.sinks import JsonlSink, Sink
from repro.observe.spans import NULL_SPAN, Span, SpanLike, SpanSession


class _Session(SpanSession):
    """State of one enabled block: sink, metrics, span stack."""

    def __init__(
        self,
        trace_id: str,
        base_parent: Optional[str],
        sink: Optional[Sink],
        owns_sink: bool,
    ) -> None:
        self.trace_id = trace_id
        self.base_parent = base_parent
        self.sink = sink
        self.owns_sink = owns_sink
        self.metrics = MetricsRegistry()
        self.stack: List[Span] = []
        self.depth = 1
        self.pid = os.getpid()
        """Owning process.  A forked pool worker inherits the module
        global ``_SESSION`` (and its open sink handle) from the parent;
        the pid check makes every accessor treat that copy as *no
        session*, so workers join traces only through :func:`attach`
        with their own append-mode sink."""

    def current_span_id(self) -> Optional[str]:
        return self.stack[-1].span_id if self.stack else self.base_parent

    def push(self, span: Span) -> None:
        self.stack.append(span)

    def pop(self, span: Span) -> None:
        if self.stack and self.stack[-1] is span:
            self.stack.pop()

    def emit(self, record: Dict[str, object]) -> None:
        if self.sink is not None:
            self.sink.write(record)

    def close(self) -> None:
        """Flush metric records, then release a sink this session owns."""
        for record in self.metrics.records():
            record["trace_id"] = self.trace_id
            record["pid"] = os.getpid()
            self.emit(record)
        if self.sink is not None and self.owns_sink:
            self.sink.close()


_SESSION: Optional[_Session] = None


def _active() -> Optional[_Session]:
    """The session owned by *this* process, or ``None``.

    Filters out a session inherited across ``fork`` — see
    :attr:`_Session.pid`.
    """
    session = _SESSION
    if session is None or session.pid != os.getpid():
        return None
    return session


def is_enabled() -> bool:
    """Fast path: is any observability session active in this process?"""
    return _active() is not None


@contextmanager
def enabled(
    sink: Optional[Sink] = None, jsonl_path: Optional[str] = None
) -> Iterator[None]:
    """Enable observability for the duration of the block.

    The outermost ``enabled()`` owns the session (and closes a sink it
    created from ``jsonl_path``); nested calls reuse the outer session,
    and their ``sink``/``jsonl_path`` arguments are ignored.  With
    neither argument, records are dropped.
    """
    global _SESSION
    if sink is not None and jsonl_path is not None:
        raise ValueError("pass sink= or jsonl_path=, not both")
    session = _active()
    if session is not None:
        session.depth += 1
        try:
            yield
        finally:
            session.depth -= 1
        return
    owns_sink = False
    if sink is None and jsonl_path is not None:
        sink = JsonlSink(jsonl_path)
        owns_sink = True
    _SESSION = _Session(new_trace_id(), None, sink, owns_sink)
    try:
        yield
    finally:
        session, _SESSION = _SESSION, None
        if session is not None:
            session.close()


@contextmanager
def attach(context: Optional[TraceContext]) -> Iterator[None]:
    """Worker-side: join the trace in ``context`` for the block.

    ``None`` (tracing was disabled at dispatch) is a no-op, as is an
    already-active session — the serial path runs jobs inside the
    originating session — and a context with no trace file: a worker
    session without one would build every span and drop every record.
    Metrics flush on every detach, so each pool worker job contributes
    its counter *delta* exactly once.
    """
    global _SESSION
    if context is None or not context.jsonl_path or _active() is not None:
        yield
        return
    sink = JsonlSink(context.jsonl_path, append=True)
    _SESSION = _Session(context.trace_id, context.span_id, sink, owns_sink=True)
    try:
        yield
    finally:
        session, _SESSION = _SESSION, None
        if session is not None:
            session.close()


def propagation_context() -> Optional[TraceContext]:
    """Picklable capsule of the current trace for pool dispatch."""
    session = _active()
    if session is None:
        return None
    path = session.sink.path if session.sink is not None else None
    return TraceContext(session.trace_id, session.current_span_id(), path)


def span(name: str, **attrs: object) -> SpanLike:
    """A new child span of the current one (the shared no-op if disabled)."""
    session = _active()
    if session is None:
        return NULL_SPAN
    return Span(session, name, dict(attrs))


def emit_span(
    name: str,
    duration_s: float,
    status: str = "ok",
    t_start: Optional[float] = None,
    **attrs: object,
) -> None:
    """Emit a span with externally measured timing (no enter/exit pair).

    The engine uses this for per-cell lifecycle spans: a timed-out or
    killed-worker job has a measured wall duration but no worker-side
    span record, yet must still appear as one node of the trace tree.
    """
    session = _active()
    if session is None or session.sink is None:
        return
    start = t_start if t_start is not None else clock.wall() - duration_s
    session.emit(
        {
            "type": "span",
            "trace_id": session.trace_id,
            "span_id": new_span_id(),
            "parent_id": session.current_span_id(),
            "name": name,
            "t_start": start,
            "duration_s": duration_s,
            "status": status,
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
    )


def event(name: str, **attrs: object) -> None:
    """Record a point-in-time event under the current span."""
    session = _active()
    if session is None or session.sink is None:
        return
    session.emit(
        {
            "type": "event",
            "trace_id": session.trace_id,
            "span_id": session.current_span_id(),
            "name": name,
            "t": clock.wall(),
            "pid": os.getpid(),
            "attrs": dict(attrs),
        }
    )


def counter(name: str) -> Counter:
    session = _active()
    return session.metrics.counter(name) if session is not None else NULL_COUNTER


def gauge(name: str) -> Gauge:
    session = _active()
    return session.metrics.gauge(name) if session is not None else NULL_GAUGE


def histogram(name: str) -> Histogram:
    session = _active()
    return (
        session.metrics.histogram(name) if session is not None else NULL_HISTOGRAM
    )
