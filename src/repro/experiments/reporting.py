"""Plain-text rendering of experiment outputs (the "figures" and "tables").

The harness has no plotting dependency; every figure is reported as the
numeric series the paper plots, every table as an aligned text table —
enough to check shapes (who wins, by what factor, where crossovers are).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "format_table",
    "format_series",
    "format_evaluator_stats",
    "format_gnn_counts",
    "ascii_chart",
    "banner",
]


def banner(title: str) -> str:
    bar = "=" * max(len(title), 8)
    return f"\n{bar}\n{title}\n{bar}"


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None
) -> str:
    """Align columns; floats rendered to 3 decimals."""

    def cell(v: object) -> str:
        if isinstance(v, float):
            return f"{v:.3f}"
        return str(v)

    grid = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in grid)) if grid else len(headers[c])
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in grid:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    series: Mapping[str, Sequence[float]],
    x: Sequence[object] | None = None,
    x_label: str = "step",
    title: str | None = None,
    every: int = 1,
    chart: bool = True,
) -> str:
    """Render named numeric series side by side (one row per x value),
    followed by an ASCII line chart (the "figure" view)."""
    names = list(series)
    length = max(len(s) for s in series.values())
    xs = list(x) if x is not None else list(range(length))
    rows = []
    for i in range(0, length, every):
        row: list[object] = [xs[i] if i < len(xs) else ""]
        for name in names:
            s = series[name]
            row.append(float(s[i]) if i < len(s) else "")
        rows.append(row)
    # Always include the final point.
    if (length - 1) % every != 0:
        row = [xs[-1] if xs else ""]
        for name in names:
            s = series[name]
            row.append(float(s[-1]))
        rows.append(row)
    text = format_table([x_label, *names], rows, title=title)
    if chart and length >= 2:
        text += "\n\n" + ascii_chart(series, x_label=x_label)
    return text


def format_evaluator_stats(
    stats: Mapping[str, object],
    title: str = "scoring-path statistics (PlacementEvaluator)",
) -> str:
    """Table of per-policy evaluation counters from an evaluation sweep.

    ``stats`` maps policy name to a :class:`repro.runtime.EvaluatorStats`
    (duck-typed: anything with its counter attributes works).  Counters
    only — wall-clock throughput is deliberately excluded so persisted
    reports stay byte-identical across same-seed runs; benchmarks derive
    evaluations/sec from ``EvalResult.search_seconds`` themselves.
    """
    headers = ["policy", "evals", "cache hits", "hit rate", "fast path", "exact path"]
    rows = [
        [
            name,
            int(s.evaluations),
            int(s.cache_hits),
            float(s.hit_rate),
            int(s.fast_path),
            int(s.exact_path),
        ]
        for name, s in stats.items()
    ]
    return format_table(headers, rows, title=title)


def format_gnn_counts(
    stats: Mapping[str, Mapping[str, float]],
    title: str = "GNN hot-path statistics (embedding passes)",
) -> str:
    """Table of per-policy GNN forward/backward counters.

    ``stats`` maps policy name to a
    :attr:`repro.experiments.runner.EvalResult.gnn` entry.
    Counters only — the ``gnn_seconds`` member is wall-clock and
    deliberately excluded so persisted reports stay byte-identical
    across same-seed runs (it still reaches benchmarks through report
    ``data``, where volatile-key stripping handles it).
    """
    headers = ["policy", "gnn forwards", "gnn backwards"]
    rows = [[name, s["forwards"], s["backwards"]] for name, s in stats.items()]
    return format_table(headers, rows, title=title)


_MARKS = "*o+x#@%&"


def ascii_chart(
    series: Mapping[str, Sequence[float]],
    width: int = 60,
    height: int = 12,
    x_label: str = "step",
) -> str:
    """Plot the series as an ASCII line chart with a shared y-axis.

    Each series gets a marker character; overlapping points show the
    marker of the later series in iteration order.  Values are scaled to
    the joint [min, max] range, so relative ordering and crossovers — the
    reproducible content of the paper's figures — are visible directly.
    """
    if width < 10 or height < 4:
        raise ValueError("chart needs width >= 10 and height >= 4")
    names = list(series)
    if not names:
        raise ValueError("no series to plot")
    all_values = [float(v) for s in series.values() for v in s if np.isfinite(v)]
    if not all_values:
        raise ValueError("series contain no finite values")
    lo, hi = min(all_values), max(all_values)
    if hi - lo < 1e-12:
        hi = lo + 1.0

    grid = [[" "] * width for _ in range(height)]
    max_len = max(len(s) for s in series.values())
    for k, name in enumerate(names):
        mark = _MARKS[k % len(_MARKS)]
        values = list(series[name])
        for t, value in enumerate(values):
            if not np.isfinite(value):
                continue
            col = int(round(t / max(max_len - 1, 1) * (width - 1)))
            rownum = int(round((hi - float(value)) / (hi - lo) * (height - 1)))
            grid[rownum][col] = mark

    lines = [f"{hi:10.3f} ┤" + "".join(grid[0])]
    for r in range(1, height - 1):
        lines.append(" " * 10 + " │" + "".join(grid[r]))
    lines.append(f"{lo:10.3f} ┤" + "".join(grid[-1]))
    lines.append(" " * 10 + " └" + "─" * width + f"> {x_label}")
    legend = "   ".join(
        f"{_MARKS[k % len(_MARKS)]} {name}" for k, name in enumerate(names)
    )
    lines.append(" " * 12 + legend)
    return "\n".join(lines)
