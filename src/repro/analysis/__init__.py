"""Domain-invariant static analysis for the repro codebase.

Generic linters cannot check the invariants this reproduction's
correctness rests on; :mod:`repro.analysis` walks the AST of every
module under ``src/repro`` with rules that can:

- ``units`` — Celsius/Kelvin offsets only in ``technology/temperature.py``;
- ``determinism`` — no unseeded RNGs in the flow core, no clock reads
  outside ``repro.observe``;
- ``cache-key`` — the flow-cache, store and wire keying contracts move
  with their version constants (recorded in ``manifest.json``);
- ``frozen-mutation`` — no ``object.__setattr__`` escapes;
- ``float-equality`` — no exact float compares in physics code (warning);
- ``async-blocking`` — no blocking call reachable from an ``async def``
  without an executor hand-off;
- ``api-surface`` — ``repro.api``'s export table stays coherent.

Picklability of sweep jobs, event-loop thread affinity and the
service's structured errors are held by runtime tests instead (see
DESIGN.md §9).

Run ``python -m repro.analysis`` (see :mod:`repro.analysis.cli`), or
:func:`run_analysis` programmatically.  Findings pass through inline
``# repro-lint: ignore[rule-id]`` suppressions; every remaining error
fails the run.
"""

from repro.analysis.engine import (
    AnalysisReport,
    ModuleInfo,
    Project,
    Rule,
    run_analysis,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.manifest import Manifest
from repro.analysis.rules import all_rules

__all__ = [
    "AnalysisReport",
    "Finding",
    "Manifest",
    "ModuleInfo",
    "Project",
    "Rule",
    "Severity",
    "all_rules",
    "run_analysis",
]
