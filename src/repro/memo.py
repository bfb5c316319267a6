"""Process-wide memos: one bounded LRU per computation a process does once.

A :class:`Memo` is keyed by content (never ``id()``) and evicts its least
recently used value past ``maxsize``.  ``compute`` runs outside the lock;
on a race the first value stored wins, so every caller shares one object
(no single-flight: :func:`repro.pickledir.entry_lock` already serialises
a place-and-route, and any other duplicate is deterministic and cheap).
``hits``, ``misses`` and ``evictions`` are ints, also published as the
``<name>.hit|miss|evict`` counters.  A memo never stores ``None``.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, List, Optional, Tuple, TypeVar

from repro import observe

V = TypeVar("V")

MEMOS: Dict[str, "Memo"] = {}
"""Every memo of the process, by name."""


class Memo(Generic[V]):
    """A named LRU of at most ``maxsize`` values, shared by the process."""

    def __init__(self, name: str, maxsize: int) -> None:
        if name in MEMOS:
            raise ValueError(f"memo {name!r} already exists")
        self.name, self.maxsize = name, maxsize
        self.hits = self.misses = self.evictions = 0
        self._counters = {kind: f"{name}.{kind}" for kind in ("hit", "miss", "evict")}
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        MEMOS[name] = self

    def __len__(self) -> int:
        return len(self._entries)

    def items(self) -> List[Tuple[Hashable, V]]:
        """``(key, value)`` pairs, least recently used first."""
        with self._lock:
            return list(self._entries.items())

    def lookup(self, key: Hashable) -> Optional[V]:
        """The stored value (now the most recently used), or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        observe.counter(self._counters["miss" if value is None else "hit"]).inc()
        return value

    def put(self, key: Hashable, value: V) -> V:
        """Store ``value`` unless ``key`` has one already, and return the
        stored value; counts no hit or miss (pair it with :meth:`lookup`)."""
        with self._lock:
            stored = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            evicted = len(self._entries) > self.maxsize
            if evicted:
                self._entries.popitem(last=False)
                self.evictions += 1
        if evicted:
            observe.counter(self._counters["evict"]).inc()
        return stored

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The stored value, or ``compute()`` stored."""
        value = self.lookup(key)
        return value if value is not None else self.put(key, compute())

    def clear(self) -> None:
        """Forget every entry and zero the counts."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0


def memoized(name: str, maxsize: int) -> Callable[[Callable[..., V]], Callable[..., V]]:
    """A :class:`Memo` over a pure function, keyed by its positional
    arguments."""

    def decorate(function: Callable[..., V]) -> Callable[..., V]:
        memo: Memo[V] = Memo(name, maxsize)

        @functools.wraps(function)
        def cached(*args: Hashable) -> V:
            value = memo.lookup(args)  # no closure per call: this is a hot path
            return value if value is not None else memo.put(args, function(*args))

        return cached

    return decorate


def clear_all() -> None:
    """Empty every memo of the process."""
    for memo in MEMOS.values():
        memo.clear()
