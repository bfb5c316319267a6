"""repro.service — the distributed sweep service.

One scheduler (:class:`SweepScheduler`) turns client-submitted
:class:`~repro.runner.spec.ExperimentSpec` grids into store-digest work
items, serves already-persisted cells straight from
:class:`~repro.store.ResultStore` (zero Algorithm 1 executions on a
repeat query), dedups cells concurrently requested by multiple clients,
and dispatches the rest to the sweep engine's process pool.  A thin
asyncio HTTP front end (:class:`SweepServer`, ``python -m repro serve``)
exposes it over the versioned ``/v1`` wire API
(:mod:`repro.service.wire`); :class:`SweepClient` is the matching client
— HTTP against a server, or fully in-process with no server at all.
"""

from repro.service.client import ServiceError, SweepClient
from repro.service.events import EventBroker, ObserveBridge
from repro.service.scheduler import SweepScheduler
from repro.service.wire import (
    WIRE_KINDS,
    WIRE_SCHEMA_VERSION,
    WireError,
    from_wire,
    to_wire,
)

__all__ = [
    "EventBroker",
    "ObserveBridge",
    "ServiceError",
    "SweepClient",
    "SweepScheduler",
    "WIRE_KINDS",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "from_wire",
    "to_wire",
]


def __getattr__(name: str) -> object:
    # SweepServer pulls in the HTTP stack; load it on first touch.
    if name == "SweepServer":
        from repro.service.http import SweepServer

        return SweepServer
    raise AttributeError(f"module 'repro.service' has no attribute {name!r}")
