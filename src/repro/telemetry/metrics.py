"""Process-wide metrics registry: counters and histograms.

One `Metrics` instance per process holds every process-wide count
(``gnn.*``, ``store.*``, ``eft.*``, …): code increments its counter and
readers read that counter, or diff two reads around the work they
attribute.  The one instance-scoped count is `EvaluatorStats` — each
`PlacementEvaluator` owns its own — and it reaches the registry through
`Metrics.absorb` at its one merge point per prefix (``evaluator.*`` per
sweep, ``scenario.evaluator.*`` per session report), so
`metrics().snapshot()` is the one place to read a run's counters.

Snapshots are plain dataclasses of dicts: picklable, diffable
(`snapshot.delta(since)`) and mergeable (`registry.merge_snapshot`), so
fork workers and shard processes ship their activity home exactly like
span deltas (see :mod:`repro.telemetry.spans`).

Instruments are deliberately minimal — no labels, no time windows; a
name is a dotted string like ``"store.hits"``.  Values never feed back
into computation: the registry is observational only (the determinism
suites run with it on and off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

__all__ = [
    "Counter",
    "Histogram",
    "Metrics",
    "MetricsSnapshot",
    "metrics",
]


class Counter:
    """Monotonic accumulator (floats allowed: seconds are counters too)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Streaming summary: count / total / min / max (no buckets)."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


@dataclass
class MetricsSnapshot:
    """Frozen copy of a registry, picklable and diffable.

    ``histograms`` maps name -> ``(count, total, min, max)``.
    """

    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, tuple[int, float, float, float]] = field(default_factory=dict)

    def delta(self, since: "MetricsSnapshot") -> "MetricsSnapshot":
        """What happened after ``since`` was taken (drops unchanged entries).

        Counter/histogram values subtract.  Histogram min/max
        can't be subtracted — the delta keeps the current extremes,
        which stay correct under :meth:`Metrics.merge_snapshot`'s
        min/min, max/max combination.
        """
        counters = {}
        for name, value in self.counters.items():
            diff = value - since.counters.get(name, 0.0)
            if diff:
                counters[name] = diff
        histograms = {}
        for name, (count, total, lo, hi) in self.histograms.items():
            count0, total0, _, _ = since.histograms.get(name, (0, 0.0, 0.0, 0.0))
            if count > count0:
                histograms[name] = (count - count0, total - total0, lo, hi)
        return MetricsSnapshot(counters=counters, histograms=histograms)

    def as_dict(self) -> dict:
        """JSON-ready rendering (histograms expanded to labeled fields)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: {
                    "count": count,
                    "total": total,
                    "min": lo,
                    "max": hi,
                    "mean": total / count if count else 0.0,
                }
                for name, (count, total, lo, hi) in sorted(self.histograms.items())
            },
        }


class Metrics:
    """Get-or-create registry of named instruments."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._counters[name] = inst = Counter()
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            self._histograms[name] = inst = Histogram()
        return inst

    def absorb(self, prefix: str, counts: Mapping[str, float]) -> None:
        """Add instance-scoped counts into ``prefix.``-named counters.

        Called at the one merge point of an instance-scoped count (e.g.
        a sweep's merged `EvaluatorStats.counters()`); counts that live
        in the registry already must NOT also be absorbed or they
        double-count.
        """
        for key, value in counts.items():
            self.counter(f"{prefix}.{key}").inc(value)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            histograms={
                name: (h.count, h.total, h.min, h.max)
                for name, h in self._histograms.items()
                if h.count
            },
        )

    def merge_snapshot(self, snap: MetricsSnapshot) -> None:
        """Fold a shipped snapshot (usually a delta) into this registry."""
        for name, value in snap.counters.items():
            self.counter(name).inc(value)
        for name, (count, total, lo, hi) in snap.histograms.items():
            hist = self.histogram(name)
            hist.count += count
            hist.total += total
            if lo < hist.min:
                hist.min = lo
            if hi > hist.max:
                hist.max = hi

    def reset(self) -> None:
        """Drop every instrument (tests only)."""
        self._counters.clear()
        self._histograms.clear()


_METRICS = Metrics()


def metrics() -> Metrics:
    """The process-wide registry."""
    return _METRICS
