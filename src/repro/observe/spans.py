"""Hierarchical spans — the tracing primitive.

A :class:`Span` measures one named region: a wall-clock start for trace
alignment, a monotonic duration for precision, structured attributes, and
nesting — entering a span pushes it on the session's stack, so spans
opened inside parent to it, and the report CLI rebuilds the whole tree
from ``parent_id`` links alone.  One record is emitted per span at
*exit*; a span that never finishes (a killed or wedged worker) leaves no
record, and the engine's terminal events and lifecycle spans cover the
gap.

When observability is disabled, :func:`repro.observe.span` hands back the
shared :data:`NULL_SPAN`, whose methods all no-op — instrumented hot
loops pay one ``is-enabled`` check per phase.
"""

from __future__ import annotations

import os
from types import TracebackType
from typing import Dict, Optional, Type, Union

from repro.observe import clock
from repro.observe.context import new_span_id


class Span:
    """One timed, attributed region of a trace; use as a context manager."""

    __slots__ = (
        "name", "attrs", "trace_id", "span_id", "parent_id",
        "t_start", "duration_s", "status", "_session", "_t0",
    )

    def __init__(
        self,
        session: "SpanSession",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._session = session
        self.name = name
        self.attrs = attrs
        self.trace_id = session.trace_id
        self.span_id = new_span_id()
        self.parent_id: Optional[str] = None
        self.t_start: Optional[float] = None
        self.duration_s: Optional[float] = None
        self.status = "ok"
        self._t0 = 0.0

    def set_attrs(self, **attrs: object) -> None:
        """Attach (or overwrite) structured attributes on the live span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.parent_id = self._session.current_span_id()
        self._session.push(self)
        self.t_start = clock.wall()
        self._t0 = clock.monotonic()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.duration_s = clock.monotonic() - self._t0
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error_type", exc_type.__name__)
        self._session.pop(self)
        self._session.emit(self.to_record())

    def to_record(self) -> Dict[str, object]:
        return {
            "type": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "duration_s": self.duration_s,
            "status": self.status,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }


class SpanSession:
    """The slice of session state a :class:`Span` needs (duck-typed by
    :class:`repro.observe.runtime._Session`; declared here so the two
    modules stay import-cycle free)."""

    trace_id: str

    def current_span_id(self) -> Optional[str]:
        raise NotImplementedError

    def push(self, span: Span) -> None:
        raise NotImplementedError

    def pop(self, span: Span) -> None:
        raise NotImplementedError

    def emit(self, record: Dict[str, object]) -> None:
        raise NotImplementedError


class _NullSpan:
    """Shared no-op stand-in while observability is disabled."""

    __slots__ = ()

    duration_s: Optional[float] = None
    span_id: Optional[str] = None

    def set_attrs(self, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]
"""What :func:`repro.observe.span` returns: a live span, or the shared
no-op when disabled."""
