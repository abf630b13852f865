"""Common experiment-report container."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["ExperimentReport", "VOLATILE_DATA_KEYS"]

# Report-data keys whose values are run-dependent by nature — wall-clock
# timings and cache-provenance counters.  Everything else in a report is
# a pure function of (experiment, seed, scale, code version); stripping
# these keys is what makes the canonical JSON of two equivalent runs
# (serial vs fanned, fork vs shard-merged) byte-identical.
# ("gnn_seconds" is the wall-clock member of the otherwise-deterministic
# GNN counter blocks — see repro.experiments.runner.EvalResult.gnn.)
VOLATILE_DATA_KEYS = frozenset(
    {"search_seconds", "replace_seconds", "trace_cache", "gnn_seconds"}
)


def _strip_volatile(node: Any) -> Any:
    if isinstance(node, dict):
        return {
            key: _strip_volatile(value)
            for key, value in node.items()
            if key not in VOLATILE_DATA_KEYS
        }
    if isinstance(node, (list, tuple)):
        return [_strip_volatile(item) for item in node]
    return node


def _keep_volatile(node: Any) -> Any:
    """Complement of :func:`_strip_volatile`: volatile subtrees only.

    Volatile keys keep their whole value; elsewhere the recursion keeps
    only branches that lead to one, dropping empty containers, so the
    result mirrors the report's shape with just the run-dependent leaves.
    """
    if isinstance(node, dict):
        kept = {}
        for key, value in node.items():
            if key in VOLATILE_DATA_KEYS:
                kept[key] = value
            else:
                sub = _keep_volatile(value)
                if sub:
                    kept[key] = sub
        return kept
    if isinstance(node, (list, tuple)):
        subs = [_keep_volatile(item) for item in node]
        return subs if any(subs) else []
    return None


@dataclass(frozen=True)
class ExperimentReport:
    """Output of one experiment module.

    ``text`` is the printable reproduction of the paper's figure/table;
    ``data`` holds the raw numbers for programmatic checks (benchmarks
    assert the paper's qualitative shape on them).
    """

    experiment_id: str
    title: str
    text: str
    data: dict[str, Any] = field(default_factory=dict)

    def stable_data(self) -> dict[str, Any]:
        """``data`` minus the :data:`VOLATILE_DATA_KEYS` (recursively)."""
        return _strip_volatile(self.data)

    def volatile_data(self) -> dict[str, Any]:
        """The complement of :meth:`stable_data`: the run-dependent
        timings/cache counters only, in the report's shape.  This is
        what the CLI surfaces under the ``runtime`` key of ``--json``
        payloads — deliberately outside :meth:`to_json`, which must stay
        byte-stable across runs."""
        return _keep_volatile(self.data)

    def to_json(self) -> str:
        """Canonical JSON of the report's deterministic content.

        Sorted keys, fixed separators, volatile data stripped: two runs
        of the same (experiment, seed, scale, code) produce the same
        bytes regardless of worker count or execution backend — the
        equality `repro shard merge` is held to.
        """
        payload = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "text": self.text,
            "data": self.stable_data(),
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"[{self.experiment_id}] {self.title}\n{self.text}"
