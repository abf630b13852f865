"""Micro-benchmark: scenario replay throughput (events/sec).

Replays the arrival-heavy ``flash-crowd`` preset — the configuration
where cross-event evaluator reuse matters most, since arrival events
leave the network untouched and each policy's :class:`EvaluatorPool`
keeps every surviving problem's caches warm — asserting that the pool
serves lookups from cache and that two replays agree on every reported
value, and printing events/sec for CI visibility.
"""

import time

from repro.baselines import RandomPlacementPolicy, RandomTaskEftPolicy
from repro.scenarios import ScenarioRunner, DEFAULT_REGISTRY, materialize

REPEATS = 5


def policies():
    return {"random": RandomPlacementPolicy(), "task-eft": RandomTaskEftPolicy()}


def test_scenario_replay_throughput():
    materialized = materialize(DEFAULT_REGISTRY.get("flash-crowd"))
    num_events = materialized.num_events

    best_s, results = float("inf"), []
    for _ in range(REPEATS):
        began = time.perf_counter()
        results.append(ScenarioRunner(materialized).run(policies()))
        best_s = min(best_s, time.perf_counter() - began)

    # The replay is deterministic: every run reports the same trajectories.
    first, last = results[0], results[-1]
    for name in first.reports:
        assert first.reports[name].as_dict() == last.reports[name].as_dict(), name

    stats = first.reports["task-eft"].evaluator_stats
    assert stats["hit_rate"] > 0.0, "the pool should serve some lookups from cache"

    print(
        f"\nscenario replay ({num_events} events, 2 policies + oracle): "
        f"{num_events / best_s:7.1f} events/s ({best_s * 1e3:6.1f} ms), "
        f"hit rate {stats['hit_rate']:.2f}"
    )
