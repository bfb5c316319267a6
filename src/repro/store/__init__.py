"""repro.store — persistent, content-addressed guardband result store.

Converged Algorithm 1 fixed points are keyed by
:func:`~repro.store.store.store_digest` (flow cache key x
:class:`~repro.core.guardband.GuardbandConfig` x ambient x corner x
schema version) and persisted with the same atomic-write + advisory-lock
+ quarantine discipline as the flow cache.  The sweep engine uses the
store for cross-run reuse and checkpoint/resume; a stored cell is the
same fixed point a fresh run computes, bit for bit::

    from repro.api import ExperimentSpec, open_store, run_sweep

    store = open_store("runs/night/store")
    sweep = run_sweep(spec, workers=4, store=store,
                      jsonl_path="runs/night/sweep.jsonl")
    # later, after an interruption:
    sweep = run_sweep(spec, workers=4, store=store,
                      jsonl_path="runs/night/sweep.jsonl",
                      resume_from="runs/night/sweep.jsonl")
"""

from repro.store.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    open_store,
    store_digest,
)

__all__ = [
    "STORE_SCHEMA_VERSION",
    "ResultStore",
    "open_store",
    "store_digest",
]
