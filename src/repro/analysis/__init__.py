"""``repro lint``: AST-based invariant analysis over the source tree.

Every major bug class this reproduction has fixed by hand was an
*invariant* violation, not a logic error — shared advancing RNGs and
hardcoded seeds that broke worker-count independence (PRs 3-4), agents
sampling from internal RNGs instead of caller streams, metrics absorbed
on both sides of a merge, cache-mutating evaluation escaping the serve
daemon's single drain thread.  Each was caught late by expensive
equivalence suites.  This package catches them at diff time: the
contracts the codebase states only in docstrings and CHANGES entries
are mechanized as AST rules.

Layout
------
:mod:`~repro.analysis.loader`
    Parses every module under the package root once and resolves the
    intra-package import graph rules can traverse.
:mod:`~repro.analysis.findings`
    The :class:`Finding` model — ``file:line``, rule id, message, fix
    hint.
:mod:`~repro.analysis.suppressions`
    Inline ``# repro: lint-ok[rule-id]`` waivers, the one way to keep
    a finding on purpose.
:mod:`~repro.analysis.engine`
    Ties it together: run the rule portfolio, apply suppressions,
    render text/JSON.
:mod:`~repro.analysis.rules`
    The rule portfolio itself (one module per contract family).

Usage::

    repro lint                      # whole tree, blocking in CI
    repro lint --rule rng-constant-seed
    repro lint --json findings.json
"""

from __future__ import annotations

from .engine import LintResult, findings_payload, render_text, run_lint
from .findings import Finding
from .loader import LintTree, ModuleInfo, load_tree
from .rules import ALL_RULES, get_rules, rule_ids

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintResult",
    "LintTree",
    "ModuleInfo",
    "findings_payload",
    "get_rules",
    "load_tree",
    "render_text",
    "rule_ids",
    "run_lint",
]
