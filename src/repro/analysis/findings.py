"""The finding model: one invariant violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation.

    ``rel`` is the package-relative path (``serve/server.py``) so
    findings stay stable across checkouts; renderers join it with the
    lint root for clickable ``src/repro/...:line`` locations.  ``code``
    carries the stripped source line.
    """

    rel: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    code: str = ""

    @property
    def location(self) -> str:
        return f"{self.rel}:{self.line}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.rel,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
            "code": self.code,
        }
