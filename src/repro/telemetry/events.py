"""Run logs: capture a run's telemetry and write/read structured JSONL.

Every telemetry-enabled run (CLI experiment, shard run) ends by writing
one JSONL event log: a ``run`` header record, one ``span`` record per
aggregated span path, ``event`` records for the retained raw spans
(run-relative start times, for the Chrome export), ``metric`` records
from the registry, and an ``events_dropped`` marker when the raw-event
cap was hit.  Shard runs write one log per shard into the store's
``telemetry/`` directory; ``repro trace`` merges whatever logs a target
holds into a single span tree.

``ProgressWriter`` appends standalone ``progress`` records
(open-append-close per line, so records survive crashes and interleave
safely across processes) — the seed of heartbeat-based shard liveness.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from . import spans as _spans
from .metrics import metrics
from .spans import SpanStat, TaskDelta

__all__ = [
    "ProgressWriter",
    "RunCapture",
    "capture_run",
    "collect_run_files",
    "export_chrome",
    "read_records",
    "render_top",
    "render_tree",
    "write_run_log",
]


@dataclass
class RunCapture:
    """What one bracketed run recorded (``delta`` is None when disabled)."""

    meta: dict = field(default_factory=dict)
    wall_time: float = 0.0
    anchor: float = 0.0
    duration_s: float = 0.0
    delta: TaskDelta | None = None


@contextlib.contextmanager
def capture_run(meta: dict | None = None) -> Iterator[RunCapture]:
    """Bracket a whole run: spans/metrics recorded inside land in
    ``capture.delta`` (task-relative paths — the run root is path ``""``).

    The bracket reuses the worker-task capture machinery, so a captured
    run composes with fan-outs happening inside it.  ``capture.anchor``
    is the monotonic clock at entry; event start times in the written
    log are relative to it.
    """
    capture = RunCapture(meta=dict(meta or {}))
    capture.wall_time = time.time()
    capture.anchor = time.perf_counter()
    token = _spans.begin_task()
    try:
        yield capture
    finally:
        capture.duration_s = time.perf_counter() - capture.anchor
        if token is not None:
            capture.delta = _spans.end_task(token)


def write_run_log(path: Path, capture: RunCapture) -> Path:
    """Write one run's capture as a JSONL event log (parents created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records: list[dict] = [
        {
            "kind": "run",
            "wall_time": capture.wall_time,
            "duration_s": capture.duration_s,
            "pid": os.getpid(),
            **{f"meta.{k}": v for k, v in sorted(capture.meta.items())},
        }
    ]
    delta = capture.delta
    if delta is not None:
        for span_path in sorted(delta.spans):
            calls, seconds = delta.spans[span_path]
            records.append(
                {"kind": "span", "path": span_path, "calls": calls, "seconds": seconds}
            )
        for span_path, began, duration, pid in delta.events:
            records.append(
                {
                    "kind": "event",
                    "path": span_path,
                    "start_s": began - capture.anchor,
                    "duration_s": duration,
                    "pid": pid,
                }
            )
        if delta.events_dropped:
            records.append({"kind": "events_dropped", "count": delta.events_dropped})
        snap = delta.metrics
        for name in sorted(snap.counters):
            records.append(
                {"kind": "metric", "type": "counter", "name": name, "value": snap.counters[name]}
            )
        for name in sorted(snap.histograms):
            count, total, lo, hi = snap.histograms[name]
            records.append(
                {
                    "kind": "metric",
                    "type": "histogram",
                    "name": name,
                    "count": count,
                    "total": total,
                    "min": lo,
                    "max": hi,
                }
            )
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


class ProgressWriter:
    """Append ``progress`` records to a JSONL file, one open/close per
    record so partial runs and concurrent writers stay readable."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)

    def write(self, **fields: Any) -> None:
        record = {"kind": "progress", "wall_time": time.time(), **fields}
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass  # liveness reporting must never kill the run


# -- reading + rendering --------------------------------------------------------------


def read_records(paths: list[Path]) -> list[dict]:
    """All JSONL records across files (malformed lines skipped)."""
    records: list[dict] = []
    for path in paths:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def collect_run_files(target: Path) -> list[Path]:
    """Resolve a trace target to the JSONL files it holds.

    A file is itself; a directory prefers its ``telemetry/`` (or
    ``store/telemetry/``) subdirectory with every log merged; otherwise
    shard/progress logs merge and a plain log directory yields the
    newest log (the usual "trace my last run" case).
    """
    target = Path(target)
    if target.is_file():
        return [target]
    if not target.is_dir():
        raise FileNotFoundError(f"no trace log at {target}")
    for sub in (target / "telemetry", target / "store" / "telemetry"):
        if sub.is_dir():
            found = sorted(sub.glob("*.jsonl"))
            if found:
                return found
    found = sorted(target.glob("*.jsonl"))
    if not found:
        raise FileNotFoundError(f"no *.jsonl trace logs under {target}")
    merged = [p for p in found if p.name.startswith(("shard-", "progress-"))]
    if merged:
        return found
    return [max(found, key=lambda p: (p.stat().st_mtime, p.name))]


def _merge_spans(records: list[dict]) -> dict[str, SpanStat]:
    stats: dict[str, SpanStat] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        stat = stats.get(record["path"])
        if stat is None:
            stats[record["path"]] = stat = SpanStat()
        stat.calls += int(record["calls"])
        stat.seconds += float(record["seconds"])
    return stats


def _run_seconds(records: list[dict]) -> float:
    return sum(
        float(r.get("duration_s", 0.0)) for r in records if r.get("kind") == "run"
    )


def _children(stats: dict[str, SpanStat]) -> dict[str, list[str]]:
    tree: dict[str, list[str]] = {}
    for path in stats:
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        tree.setdefault(parent, []).append(path)
    for paths in tree.values():
        paths.sort(key=lambda p: -stats[p].seconds)
    return tree


def _self_seconds(
    path: str, stats: dict[str, SpanStat], tree: dict[str, list[str]]
) -> float:
    child_total = sum(stats[c].seconds for c in tree.get(path, ()))
    return max(0.0, stats[path].seconds - child_total)


def render_tree(records: list[dict]) -> str:
    """Span-tree summary: calls, cumulative/self seconds, % of run."""
    stats = _merge_spans(records)
    total = _run_seconds(records)
    tree = _children(stats)
    roots = tree.get("", [])
    covered = sum(stats[p].seconds for p in roots)
    lines = []
    runs = [r for r in records if r.get("kind") == "run"]
    for run in runs:
        meta = {k[5:]: v for k, v in run.items() if k.startswith("meta.")}
        tag = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"run: {tag or '(no meta)'}  duration {run.get('duration_s', 0.0):.2f}s")
    if total > 0:
        lines.append(f"coverage: {100.0 * covered / total:.1f}% of {total:.2f}s wall-clock in spans")
        lines.append("(cum/self sum CPU seconds across workers/shards; "
                     "parallel sections can exceed 100% of wall-clock)")
    if not stats:
        lines.append("no spans recorded (telemetry disabled?)")
        return "\n".join(lines)
    lines.append("")
    width = max(
        (2 * path.count("/") + len(path.rsplit("/", 1)[-1]) for path in stats),
        default=20,
    )
    width = max(width, len("span")) + 2
    header = f"{'span':<{width}} {'calls':>8} {'cum s':>10} {'self s':>10} {'% run':>7}"
    lines.append(header)
    lines.append("-" * len(header))

    def walk(path: str, depth: int) -> None:
        stat = stats[path]
        name = path.rsplit("/", 1)[-1]
        pct = 100.0 * stat.seconds / total if total > 0 else 0.0
        self_s = _self_seconds(path, stats, tree)
        lines.append(
            f"{'  ' * depth + name:<{width}} {stat.calls:>8} "
            f"{stat.seconds:>10.3f} {self_s:>10.3f} {pct:>6.1f}%"
        )
        for child in tree.get(path, ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    dropped = sum(
        int(r.get("count", 0)) for r in records if r.get("kind") == "events_dropped"
    )
    if dropped:
        lines.append(f"(raw events dropped past cap: {dropped})")
    return "\n".join(lines)


def render_top(records: list[dict], top: int) -> str:
    """Flat hotspot list ordered by self time."""
    stats = _merge_spans(records)
    if not stats:
        return "no spans recorded (telemetry disabled?)"
    tree = _children(stats)
    total = _run_seconds(records)
    rows = sorted(
        ((_self_seconds(p, stats, tree), p) for p in stats), reverse=True
    )[:top]
    width = max((len(p) for _, p in rows), default=20) + 2
    lines = [f"{'span':<{width}} {'calls':>8} {'self s':>10} {'% run':>7}"]
    lines.append("-" * len(lines[0]))
    for self_s, path in rows:
        pct = 100.0 * self_s / total if total > 0 else 0.0
        lines.append(f"{path:<{width}} {stats[path].calls:>8} {self_s:>10.3f} {pct:>6.1f}%")
    return "\n".join(lines)


def export_chrome(records: list[dict]) -> dict:
    """Chrome trace-event JSON (load in chrome://tracing or Perfetto)."""
    events: list[dict[str, Any]] = []
    for record in records:
        if record.get("kind") != "event":
            continue
        path = record["path"]
        name = path.rsplit("/", 1)[-1]
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        events.append(
            {
                "name": name,
                "cat": parent or "run",
                "ph": "X",
                "ts": float(record["start_s"]) * 1e6,
                "dur": float(record["duration_s"]) * 1e6,
                "pid": int(record.get("pid", 0)),
                "tid": 0,
                "args": {"path": path},
            }
        )
    events.sort(key=lambda e: e["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}
