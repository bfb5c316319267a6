"""Inline suppression comments.

A finding is suppressed when the physical line it anchors to carries a
marker comment::

    t_hot = t_cold + 273.15  # repro-lint: ignore[units] characterization anchor

``ignore[rule-a,rule-b]`` suppresses the named rules only; a bare
``ignore`` suppresses every rule on that line.  Anything after the
closing bracket is free-form justification (encouraged).  Suppressions
are per-line and deliberately narrow: there are no module- or
block-level opt-outs.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List

_MARKER = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_\-, ]*)\])?"
)

ALL_RULES_SENTINEL = "*"


def suppressions_for(source: str) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line number -> rule ids suppressed on that line.

    Only genuine ``#`` comment tokens count (a marker quoted inside a
    docstring is prose, not a suppression).  The sentinel ``"*"`` in the
    set means every rule is suppressed.
    """
    table: Dict[int, FrozenSet[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table
    for token in tokens:
        if token.type != tokenize.COMMENT or "repro-lint" not in token.string:
            continue
        match = _MARKER.search(token.string)
        if match is None:
            continue
        lineno = token.start[0]
        raw = match.group("rules")
        if raw is None or not raw.strip():
            table[lineno] = frozenset({ALL_RULES_SENTINEL})
        else:
            rules = {part.strip() for part in raw.split(",") if part.strip()}
            table[lineno] = frozenset(rules)
    return table


def is_suppressed(
    table: Dict[int, FrozenSet[str]], line: int, rule_id: str
) -> bool:
    rules = table.get(line)
    if rules is None:
        return False
    return ALL_RULES_SENTINEL in rules or rule_id in rules


def unknown_rule_references(
    table: Dict[int, FrozenSet[str]], known: FrozenSet[str]
) -> List[tuple]:
    """(line, rule-id) pairs naming rules that do not exist (typo guard)."""
    bad = []
    for line, rules in sorted(table.items()):
        for rule in sorted(rules):
            if rule != ALL_RULES_SENTINEL and rule not in known:
                bad.append((line, rule))
    return bad
