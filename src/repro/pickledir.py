"""One directory of pickled entries, safe under concurrent processes.

The flow cache (:mod:`repro.cad.flow`) and the guardband result store
(:mod:`repro.store`) both persist one pickle per key as
``<root>/<key>.pkl`` and share this discipline:

- writes go to a tmp file then ``os.replace`` into place, so readers
  only ever observe complete pickles even if a writer is killed;
- a per-entry ``fcntl`` advisory lock (``<key>.pkl.lock``) serialises
  writers of the same key, degrading to a no-op where ``fcntl`` is
  unavailable (atomic rename still prevents torn files);
- anything unreadable or of the wrong type is quarantined to
  ``<key>.pkl.corrupt`` for post-mortem and is a miss from then on,
  never retried in place.

A stdlib-only leaf: :mod:`repro.store` imports Algorithm 1, which imports
the flow, so the flow cannot import the store package for these rules.
"""

from __future__ import annotations

import os
import pickle
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Type, TypeVar

try:  # POSIX advisory locks; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

T = TypeVar("T")

_SUFFIX = ".pkl"


def entry_path(root: Path, key: str) -> Path:
    return root / f"{key}{_SUFFIX}"


@contextmanager
def entry_lock(path: Path) -> Iterator[None]:
    """Exclusive advisory lock serialising writers of one entry."""
    if fcntl is None:
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def load(path: Path, cls: Type[T]) -> Tuple[Optional[T], str]:
    """Unpickle one entry as ``(value, kind)``.

    ``kind`` is ``"hit"``, ``"miss"`` (no entry) or ``"quarantine"``
    (the entry could not be read or was not a ``cls``; it has been
    moved aside and the value is ``None``).
    """
    if not path.exists():
        return None, "miss"
    try:
        with open(path, "rb") as handle:
            value = pickle.load(handle)
        if not isinstance(value, cls):
            raise TypeError(f"expected {cls.__name__}, got {type(value)!r}")
    except Exception:
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            path.unlink(missing_ok=True)
        return None, "quarantine"
    return value, "hit"


def write(path: Path, value: object) -> None:
    """Pickle ``value`` to a tmp file, then rename it over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            pickle.dump(value, handle)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def keys(root: Path) -> List[str]:
    """Every stored key under ``root`` (sorted; skips quarantined,
    lock and hidden tmp files)."""
    if not root.is_dir():
        return []
    return sorted(
        p.name[: -len(_SUFFIX)]
        for p in root.iterdir()
        if p.name.endswith(_SUFFIX) and not p.name.startswith(".")
    )
