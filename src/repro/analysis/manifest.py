"""Keying manifest — the cache-key rule's recorded state.

Three versioned contracts in the codebase pair dataclass field sets
with a version constant, and all fail the same way when a field set
drifts without a bump:

- the flow cache keys on a digest of every ``ArchParams`` field plus
  ``FLOW_CACHE_VERSION`` — this pairing has drifted silently before;
- the result store (:mod:`repro.store`) keys on every ``GuardbandConfig``
  field plus ``STORE_SCHEMA_VERSION`` — a field change without a schema
  bump would serve stale converged guardbands computed under different
  semantics;
- the service wire schema (:mod:`repro.service.wire`) serialises every
  field of its wire classes under ``WIRE_SCHEMA_VERSION`` — a field
  change without a bump means an old peer's payloads are silently
  reinterpreted (or spuriously rejected) instead of failing with a
  version diagnostic.

The committed ``manifest.json`` records the last reviewed ``(version,
{class: fields})`` state of each contract, keyed by its version
constant; :mod:`repro.analysis.rules.cache_key` compares the live code
against it and fails when the fields changed but the version did not.

Regenerate it with ``python -m repro.analysis --update-manifest`` after
bumping a version.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

MANIFEST_FORMAT_VERSION = 2

Contract = Tuple[int, Dict[str, Tuple[str, ...]]]
"""One recorded contract: (version, {class: sorted field names})."""


@dataclass(frozen=True)
class Manifest:
    """Recorded contracts, keyed by version constant name."""

    contracts: Dict[str, Contract]

    @classmethod
    def load(cls, path: Path) -> Optional["Manifest"]:
        if not path.exists():
            return None
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("version") != MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported manifest version {data.get('version')!r}"
            )
        return cls(
            contracts={
                name: (
                    int(entry["version"]),
                    {c: tuple(f) for c, f in entry["classes"].items()},
                )
                for name, entry in data["contracts"].items()
            }
        )

    def save(self, path: Path) -> None:
        payload = {
            "version": MANIFEST_FORMAT_VERSION,
            "contracts": {
                name: {
                    "version": version,
                    "classes": {c: sorted(f) for c, f in classes.items()},
                }
                for name, (version, classes) in self.contracts.items()
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def dataclass_field_names(class_body: List) -> List[str]:
    """Field names of a dataclass body: annotated, non-ClassVar assignments."""
    names: List[str] = []
    for stmt in class_body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        annotation = ast.dump(stmt.annotation)
        if "ClassVar" in annotation:
            continue
        names.append(stmt.target.id)
    return names
