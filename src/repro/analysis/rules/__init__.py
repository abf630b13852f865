"""The rule portfolio: one module per contract family.

``ALL_RULES`` maps rule id -> factory.  Factories (not instances) so
every run gets fresh rule objects — some rules accumulate cross-module
state between ``check_module`` and ``finish``.
"""

from __future__ import annotations

from typing import Callable

from .base import LintContext, Rule
from .concurrency import DrainThreadOwnershipRule, FanoutPickleSafetyRule
from .reports import CanonicalJsonRule, VolatileKeyDriftRule
from .rng import RngConstantSeedRule, RngStoredAdvancingRule
from .telemetry_purity import StatsDoubleAbsorbRule, TelemetryPurityRule

__all__ = [
    "ALL_RULES",
    "LintContext",
    "Rule",
    "get_rules",
]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    RngConstantSeedRule,
    RngStoredAdvancingRule,
    TelemetryPurityRule,
    StatsDoubleAbsorbRule,
    VolatileKeyDriftRule,
    CanonicalJsonRule,
    FanoutPickleSafetyRule,
    DrainThreadOwnershipRule,
)

ALL_RULES: dict[str, Callable[[], Rule]] = {cls.id: cls for cls in _RULE_CLASSES}


def get_rules(ids: list[str] | None = None) -> list[Rule]:
    """Fresh instances of the selected rules (all when ``ids`` is None)."""
    if ids is None:
        return [factory() for factory in ALL_RULES.values()]
    unknown = [rule_id for rule_id in ids if rule_id not in ALL_RULES]
    if unknown:
        known = ", ".join(ALL_RULES)
        raise KeyError(f"unknown rule id(s) {unknown}; known: {known}")
    return [ALL_RULES[rule_id]() for rule_id in ids]
