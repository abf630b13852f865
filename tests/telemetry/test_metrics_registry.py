"""Metrics registry: instruments, snapshot algebra, absorb."""

import pickle

from repro.runtime.evaluator import EvaluatorStats
from repro.telemetry import Metrics, MetricsSnapshot


class TestInstruments:
    def test_counter_get_or_create(self):
        reg = Metrics()
        c = reg.counter("a.b")
        c.inc()
        c.inc(2.5)
        assert reg.counter("a.b") is c
        assert c.value == 3.5

    def test_histogram_summary(self):
        reg = Metrics()
        h = reg.histogram("batch")
        for v in (2, 8, 5):
            h.observe(v)
        assert (h.count, h.total, h.min, h.max) == (3, 15.0, 2.0, 8.0)
        assert h.mean == 5.0

    def test_empty_histogram_mean_is_zero(self):
        assert Metrics().histogram("x").mean == 0.0


class TestSnapshot:
    def test_snapshot_is_frozen_copy(self):
        reg = Metrics()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap.counters["c"] == 1.0

    def test_unobserved_histograms_omitted(self):
        reg = Metrics()
        reg.histogram("never")
        assert reg.snapshot().histograms == {}

    def test_delta_drops_unchanged(self):
        reg = Metrics()
        reg.counter("stable").inc(5)
        before = reg.snapshot()
        reg.counter("moved").inc(2)
        delta = reg.snapshot().delta(before)
        assert delta.counters == {"moved": 2.0}

    def test_histogram_delta_subtracts_counts(self):
        reg = Metrics()
        reg.histogram("h").observe(1)
        before = reg.snapshot()
        reg.histogram("h").observe(10)
        delta = reg.snapshot().delta(before)
        count, total, _, hi = delta.histograms["h"]
        assert (count, total, hi) == (1, 10.0, 10.0)

    def test_merge_snapshot_accumulates(self):
        reg = Metrics()
        reg.counter("c").inc(1)
        reg.histogram("h").observe(3)
        shipped = MetricsSnapshot(
            counters={"c": 2.0},
            histograms={"h": (2, 11.0, 1.0, 10.0)},
        )
        reg.merge_snapshot(shipped)
        snap = reg.snapshot()
        assert snap.counters["c"] == 3.0
        assert snap.histograms["h"] == (3, 14.0, 1.0, 10.0)

    def test_snapshot_picklable(self):
        reg = Metrics()
        reg.counter("c").inc()
        reg.histogram("h").observe(2)
        snap = pickle.loads(pickle.dumps(reg.snapshot()))
        assert snap.counters == {"c": 1.0}

    def test_as_dict_expands_histograms(self):
        reg = Metrics()
        reg.histogram("h").observe(2)
        reg.histogram("h").observe(4)
        rendered = reg.snapshot().as_dict()
        assert rendered["histograms"]["h"] == {
            "count": 2,
            "total": 6.0,
            "min": 2.0,
            "max": 4.0,
            "mean": 3.0,
        }


    def test_as_dict_renders_counters_and_histograms_only(self):
        reg = Metrics()
        reg.counter("c").inc()
        reg.histogram("h").observe(1)
        assert list(reg.snapshot().as_dict()) == ["counters", "histograms"]


class TestAbsorb:
    def test_absorb_prefixes(self):
        reg = Metrics()
        stats = EvaluatorStats(evaluations=10, cache_hits=7, cache_misses=3)
        reg.absorb("evaluator", stats.counters())
        snap = reg.snapshot()
        assert snap.counters["evaluator.evaluations"] == 10
        assert snap.counters["evaluator.cache_hits"] == 7
        assert "evaluator.hit_rate" not in snap.counters

    def test_absorb_accumulates_across_calls(self):
        reg = Metrics()
        reg.absorb("s", {"n": 1})
        reg.absorb("s", {"n": 2})
        assert reg.snapshot().counters["s.n"] == 3
