"""Inline suppressions: ``# repro: lint-ok[rule-id]``.

A suppression comment waives findings of the named rule(s) on its own
line, or — when the comment stands alone — on the next line that holds
code; ``lint-ok[a, b]`` lists several rule ids.  This is the only way
to keep a finding, so every waiver names its rules and gives its
reason beside it: after the bracket or in the comment line above.  A
bare ``# repro: lint-ok`` names no rule and waives nothing.
"""

from __future__ import annotations

import re

from .loader import ModuleInfo

__all__ = ["Suppressions", "collect_suppressions"]

_PATTERN = re.compile(r"#\s*repro:\s*lint-ok\[([^\]]*)\]")


class Suppressions:
    """Per-module map of line -> waived rule ids."""

    def __init__(self, by_line: dict[int, set[str]]):
        self._by_line = by_line

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        waived = self._by_line.get(line)
        return waived is not None and rule_id in waived

    def __bool__(self) -> bool:
        return bool(self._by_line)


def collect_suppressions(module: ModuleInfo) -> Suppressions:
    """Scan a module's source for suppression comments.

    Works on raw lines rather than the AST so comments survive exactly
    where the author put them.  A comment-only line forwards its waiver
    to the next non-blank, non-comment line (the statement it guards).
    """
    by_line: dict[int, set[str]] = {}
    pending: set[str] | None = None
    for lineno, text in enumerate(module.lines, start=1):
        stripped = text.strip()
        match = _PATTERN.search(text)
        if match:
            ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if stripped.startswith("#"):
                pending = (pending or set()) | ids
            else:
                by_line.setdefault(lineno, set()).update(ids)
            continue
        if pending is not None and stripped and not stripped.startswith("#"):
            by_line.setdefault(lineno, set()).update(pending)
            pending = None
    return Suppressions(by_line)
