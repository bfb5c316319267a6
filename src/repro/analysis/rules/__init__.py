"""Rule registry: every domain rule the engine runs by default."""

from __future__ import annotations

from typing import List

from repro.analysis.engine import Rule
from repro.analysis.rules.api_surface import ApiSurfaceRule
from repro.analysis.rules.async_blocking import AsyncBlockingRule
from repro.analysis.rules.cache_key import CacheKeyRule
from repro.analysis.rules.determinism import DeterminismRule
from repro.analysis.rules.float_eq import FloatEqualityRule
from repro.analysis.rules.frozen_mutation import FrozenMutationRule
from repro.analysis.rules.units import UnitsRule

__all__ = [
    "ApiSurfaceRule",
    "AsyncBlockingRule",
    "CacheKeyRule",
    "DeterminismRule",
    "FloatEqualityRule",
    "FrozenMutationRule",
    "UnitsRule",
    "all_rules",
    "registry_rule_ids",
]


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in reporting order."""
    return [
        UnitsRule(),
        DeterminismRule(),
        CacheKeyRule(),
        FrozenMutationRule(),
        FloatEqualityRule(),
        AsyncBlockingRule(),
        ApiSurfaceRule(),
    ]


def registry_rule_ids() -> List[str]:
    """Every registered rule id, in reporting order."""
    return [rule.rule_id for rule in all_rules()]
