"""determinism — the P&R flow and everything feeding it must be seeded.

``run_flow`` is cached and retried per ``(netlist, arch, seed)``; the
sweep engine's bounded-retry and bit-identity guarantees (and the flow
cache itself) are only sound if a job recomputes identically from its
inputs.  Inside the deterministic core (``cad/``, ``core/``, ``runner/``,
``spice/``, ``netlists/``) this rule flags every source of hidden
nondeterminism:

- ``np.random.default_rng()`` or ``np.random.RandomState()`` with no
  seed (or an explicit ``None``) — both are fine when seeded;
- legacy global-state numpy randomness (``np.random.normal`` etc.);
- the stdlib ``random`` module (globally seeded, process-wide state).

Clock reads are policed *repo-wide*, not just in the core: every clock —
wall (``time.time``, ``datetime.now``/``utcnow``) **and** monotonic
(``time.perf_counter``, ``time.monotonic``, and their ``_ns`` variants)
— must be read through :mod:`repro.observe.clock`, so timing stays an
observability concern that one grep can audit.  Only ``observe/``
(the clock's home) is exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding, Severity

DETERMINISTIC_PREFIXES: Tuple[str, ...] = (
    "cad/",
    "core/",
    "runner/",
    "spice/",
    "netlists/",
)

CLOCK_EXEMPT_PREFIXES: Tuple[str, ...] = ("observe/",)
"""Modules allowed to read clocks directly: the observability subsystem
(everything else routes through :mod:`repro.observe.clock`)."""

_SEEDED_NP_RANDOM = frozenset({"default_rng", "Generator", "SeedSequence"})
_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
    }
)


def _dotted(node: ast.AST) -> Optional[str]:
    """`a.b.c` attribute chain as a string, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class DeterminismRule(Rule):
    rule_id = "determinism"
    severity = Severity.ERROR
    description = (
        "unseeded RNGs or stdlib random inside the deterministic flow core "
        "(cad/, core/, runner/, spice/, netlists/), and direct clock reads "
        "anywhere outside repro.observe"
    )

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        in_core = module.rel.startswith(DETERMINISTIC_PREFIXES)
        clock_exempt = module.rel.startswith(CLOCK_EXEMPT_PREFIXES)
        if not in_core and clock_exempt:
            return ()
        findings: List[Finding] = []
        uses_stdlib_random = False
        if in_core:
            for node in module.tree.body:
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name == "random":
                            uses_stdlib_random = True
                elif isinstance(node, ast.ImportFrom) and node.module == "random":
                    findings.append(
                        module.finding(
                            self,
                            node,
                            "stdlib `random` imports share mutable global state "
                            "across the process; use a seeded "
                            "np.random.default_rng(seed) instead",
                        )
                    )
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _dotted(node.func)
            if chain is None:
                continue
            if in_core:
                findings.extend(
                    self._check_rng_call(module, node, chain, uses_stdlib_random)
                )
            if not clock_exempt:
                findings.extend(self._check_clock_call(module, node, chain))
        return findings

    def _check_clock_call(
        self, module: ModuleInfo, node: ast.Call, chain: str
    ) -> Iterable[Finding]:
        tail = chain.split(".")
        if chain in _CLOCK_CALLS or (
            len(tail) >= 2 and ".".join(tail[-2:]) in _CLOCK_CALLS
        ):
            yield module.finding(
                self,
                node,
                f"direct wall-clock/monotonic read `{chain}`; all clock "
                "access goes through repro.observe.clock (wall()/monotonic()) "
                "so timing stays an auditable observability concern",
            )

    def _check_rng_call(
        self,
        module: ModuleInfo,
        node: ast.Call,
        chain: str,
        uses_stdlib_random: bool,
    ) -> Iterable[Finding]:
        tail = chain.split(".")
        # Seedable constructors: np.random.default_rng() and the legacy
        # np.random.RandomState() are fine *with* a seed, nondeterministic
        # without one (or with an explicit None).
        if tail[-1] in ("default_rng", "RandomState"):
            ctor = tail[-1]
            if not node.args and not node.keywords:
                yield module.finding(
                    self,
                    node,
                    f"np.random.{ctor}() without a seed is "
                    "nondeterministic; thread an explicit seed through",
                )
            elif node.args and (
                isinstance(node.args[0], ast.Constant)
                and node.args[0].value is None
            ):
                yield module.finding(
                    self,
                    node,
                    f"np.random.{ctor}(None) seeds from the OS; require "
                    "an integer seed",
                )
            return
        # Legacy numpy global-state API: np.random.normal, np.random.seed...
        if len(tail) >= 3 and tail[-3] in {"np", "numpy"} and tail[-2] == "random":
            if tail[-1] not in _SEEDED_NP_RANDOM:
                yield module.finding(
                    self,
                    node,
                    f"legacy global-state numpy randomness "
                    f"`{chain}`; use a seeded np.random.default_rng(seed)",
                )
            return
        # stdlib random module calls (only when `import random` is stdlib's).
        if uses_stdlib_random and len(tail) == 2 and tail[0] == "random":
            yield module.finding(
                self,
                node,
                f"`{chain}` uses the process-wide stdlib random state; "
                "use a seeded np.random.default_rng(seed)",
            )
