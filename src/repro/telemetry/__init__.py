"""Unified telemetry fabric: trace spans, metrics registry, run logs.

Four small modules, one import surface:

- :mod:`.spans` — hierarchical `span()` timings over a process-wide
  collector, with `begin_task`/`end_task`/`merge_task_delta` for
  shipping worker activity across fork/shard boundaries;
- :mod:`.metrics` — the process-wide `Metrics` registry
  (counters/histograms) with mergeable snapshots;
- :mod:`.log` — the leveled stderr logger behind ``REPRO_LOG``;
- :mod:`.events` — `capture_run` + JSONL run logs + the renderers
  behind ``repro trace``.

Telemetry is observational only: it never touches an rng, never feeds a
value back into computation, and all its output stays out of
``stable_data()`` — the determinism suites run bit-identical with it on
(``REPRO_TELEMETRY=on``, the default) and off.
"""

from . import log
from .events import (
    ProgressWriter,
    RunCapture,
    capture_run,
    collect_run_files,
    export_chrome,
    read_records,
    render_top,
    render_tree,
    write_run_log,
)
from .metrics import Metrics, MetricsSnapshot, metrics
from .spans import (
    SpanStat,
    TaskDelta,
    begin_task,
    collector,
    enabled,
    end_task,
    merge_task_delta,
    reset,
    set_enabled,
    span,
    traced,
)

__all__ = [
    "Metrics",
    "MetricsSnapshot",
    "ProgressWriter",
    "RunCapture",
    "SpanStat",
    "TaskDelta",
    "begin_task",
    "capture_run",
    "collect_run_files",
    "collector",
    "enabled",
    "end_task",
    "export_chrome",
    "log",
    "merge_task_delta",
    "metrics",
    "read_records",
    "render_top",
    "render_tree",
    "reset",
    "set_enabled",
    "span",
    "traced",
    "write_run_log",
]
