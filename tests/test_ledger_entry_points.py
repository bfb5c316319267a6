"""Every call the perfbench ledger wraps must exist.

``perfbench/ledger.py`` monkeypatches each ``(owner, name)`` from
``entry_points()`` with a timing wrapper; a name deleted or renamed in
``src/`` would otherwise surface only when a traced benchmark run starts.
"""

from __future__ import annotations

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrapped_entry_point_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import ledger

    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for owner, name, *_ in ledger.entry_points()
        if not callable(getattr(owner, name, None))
    ]
    assert not missing, f"ledger wraps names that do not exist: {missing}"
