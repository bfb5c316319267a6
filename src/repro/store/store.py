"""Content-addressed guardband result store.

Algorithm 1's fixed point is deterministic in its inputs: the
placed-and-routed design (identified by the flow cache key), the
:class:`~repro.core.guardband.GuardbandConfig`, the ambient temperature
and the fabric corner.  :func:`store_digest` folds exactly those — plus
:data:`STORE_SCHEMA_VERSION` — into one SHA-256 digest, and
:class:`ResultStore` persists each converged
:class:`~repro.core.guardband.GuardbandResult` under it.

Each entry is ``<root>/<digest>.pkl`` under the same atomic-write +
advisory-lock + quarantine discipline as the flow cache
(:mod:`repro.pickledir`); unreadable or wrong-type entries are
quarantined and treated as misses, never retried in place.

Store behaviour is mirrored into :mod:`repro.observe` (``store.hit`` /
``store.miss`` / ``store.put`` / ``store.quarantine`` counters and
events).
"""

from __future__ import annotations

import hashlib
from dataclasses import fields
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro import observe, pickledir
from repro.core.guardband import GuardbandConfig, GuardbandResult

STORE_SCHEMA_VERSION = 6
"""Bump when the digest inputs or the stored payload change meaning.

The schema version is folded into every digest, so old-schema entries
simply stop matching (no in-place migration).  A ``GuardbandConfig``
field-set change MUST come with a bump — enforced by the ``cache-key``
lint rule against the committed manifest
(``repro/analysis/manifest.json``).

Version 2: ``GuardbandConfig`` grew ``thermal_weight`` (thermal-aware
placement); the digest field set changed, so v1 entries must stop
matching rather than alias results placed under a different objective.

Version 3: ``GuardbandConfig`` grew ``mode`` / ``target_frequency_hz``
(energy objective) and ``GuardbandResult`` grew ``mode`` / ``vdd_v`` /
``energy``.  The digest field set changed *and* the pickled payload
shape changed, so v2 entries must stop matching rather than serve a
frequency-mode result for an energy-mode request (or unpickle a result
missing the new fields).

Version 4: ``GuardbandConfig`` lost its warm-start seeding policy and
``GuardbandResult`` lost the flag recording it (every cell now starts
from its flat ambient).  The digest field set changed *and* the pickled
payload shape changed, so v3 entries must stop matching rather than
serve a fixed point that may have been seeded from a neighbour's
profile, which is not bit-identical to the answer a v4 run gives.

Version 5: ``GuardbandIteration`` lost its wall-clock per-phase timing
dict (phase time now lives only in the trace's ``guardband.*`` spans).
The pickled payload shape changed, so v4 entries must stop matching
rather than unpickle iterations carrying a field the class no longer
has; a v5 entry is the same bytes on every run of the same cell.

Version 6: an energy-mode iteration runs no STA, so its history row's
``frequency_hz`` is the target clock its power was evaluated at, not the
discarded STA clock.  The payload shape is unchanged but an energy
entry's bytes are not, so v5 entries must stop matching rather than
serve history rows the current code does not produce.
"""


def _count(kind: str, **attrs: object) -> None:
    observe.counter(f"store.{kind}").inc()
    observe.event(f"store.{kind}", **attrs)


def store_digest(
    flow_cache_key: str,
    config: GuardbandConfig,
    t_ambient: float,
    corner: float,
) -> str:
    """The content address of one converged guardband fixed point.

    SHA-256 over ``(schema version, flow cache key, every GuardbandConfig
    field, ambient, corner)`` — deterministic across processes and
    interpreter restarts.  The flow cache key already encodes netlist,
    architecture digest, seed and ``FLOW_CACHE_VERSION``, so a P&R change
    invalidates store entries transitively.
    """
    if not flow_cache_key:
        raise ValueError("store_digest needs a non-empty flow cache key")
    payload = repr(
        (
            STORE_SCHEMA_VERSION,
            flow_cache_key,
            tuple((f.name, getattr(config, f.name)) for f in fields(config)),
            float(t_ambient),
            float(corner),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultStore:
    """Keyed persistence for converged :class:`GuardbandResult` values.

    Cheap to construct (holds only the directory root), so worker
    processes open their own handle onto a shared directory.  All
    methods are safe under concurrent multi-process use.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        """On-disk path of one entry."""
        return pickledir.entry_path(self.root, digest)

    def get(self, digest: str) -> Optional[GuardbandResult]:
        """The stored result, or ``None`` on miss (corrupt ⇒ quarantine)."""
        result, kind = self.load(digest)
        self.record_access(kind, digest)
        return result

    def load(self, digest: str) -> Tuple[Optional[GuardbandResult], str]:
        """Read + validate, without emitting instrumentation.

        Returns ``(result, kind)`` with ``kind`` one of ``"hit"`` /
        ``"miss"`` / ``"quarantine"``.  Corrupt payloads are quarantined
        (file IO) here, but no observe counters or events are
        touched — callers that run the read off the session's owning
        thread (the scheduler's executor-side store probe) report the
        outcome back on that thread via :meth:`record_access`.
        :meth:`get` is the fused convenience form.
        """
        return pickledir.load(self.path_for(digest), GuardbandResult)

    def record_access(self, kind: str, digest: str) -> None:
        """Tally one :meth:`load` outcome (store counters + events)."""
        _count(kind, digest=digest)

    def put(self, digest: str, result: GuardbandResult) -> None:
        """Persist ``result`` under ``digest`` (atomic, writer-locked)."""
        if not isinstance(result, GuardbandResult):
            raise TypeError(
                f"ResultStore stores GuardbandResult, got {type(result)!r}"
            )
        path = self.path_for(digest)
        with pickledir.entry_lock(path):
            pickledir.write(path, result)
        _count("put", digest=digest)

    def __contains__(self, digest: str) -> bool:
        return self.path_for(digest).exists()

    def digests(self) -> List[str]:
        """Every digest currently stored (sorted, excludes quarantined)."""
        return pickledir.keys(self.root)

    def __len__(self) -> int:
        return len(self.digests())

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r})"


def open_store(root: Union[str, Path]) -> ResultStore:
    """Open (creating if needed) the directory store rooted at ``root``."""
    store = ResultStore(root)
    store.root.mkdir(parents=True, exist_ok=True)
    return store
