"""PlacementSession: the request-sized unit carved out of ScenarioRunner.

The tentpole invariant: driving a session event by event (the daemon's
access pattern, with the oracle computed lazily per event) must produce
an AdaptationReport byte-identical to the batch ScenarioRunner replay
(which precomputes the oracle series up front).
"""

import json

import pytest

from repro.baselines import RandomTaskEftPolicy
from repro.scenarios import DEFAULT_REGISTRY, ScenarioRunner, materialize
from repro.serve.session import PlacementSession, scenario_states
from repro.telemetry import metrics

PRESETS = ["stable-cluster", "edge-churn", "bandwidth-degradation"]


def canonical(report_dict):
    return json.dumps(report_dict, sort_keys=True)


@pytest.fixture(scope="module")
def references():
    out = {}
    for name in PRESETS:
        spec = DEFAULT_REGISTRY.get(name, seed=3)
        result = ScenarioRunner(spec).run({"task-eft": RandomTaskEftPolicy()})
        out[name] = result.reports["task-eft"].as_dict(include_timing=False)
    return out


class TestEquivalence:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_stepwise_replay_matches_runner(self, preset, references):
        spec = DEFAULT_REGISTRY.get(preset, seed=3)
        session = PlacementSession(spec, "task-eft", RandomTaskEftPolicy())
        while session.remaining:
            session.step()
        got = session.report().as_dict(include_timing=False)
        assert canonical(got) == canonical(references[preset])

    def test_run_matches_stepwise(self):
        spec = DEFAULT_REGISTRY.get("edge-churn", seed=7)
        stepped = PlacementSession(spec, "task-eft", RandomTaskEftPolicy())
        while stepped.remaining:
            stepped.step()
        ran = PlacementSession(spec, "task-eft", RandomTaskEftPolicy()).run()
        assert canonical(ran.as_dict(include_timing=False)) == canonical(
            stepped.report().as_dict(include_timing=False)
        )

    def test_oracle_off_reports_zero_regret(self):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        session = PlacementSession(
            spec, "task-eft", RandomTaskEftPolicy(), oracle=False
        )
        report = session.run()
        assert all(step.oracle_slr == 0.0 for step in report.steps)

    def test_precomputed_oracle_series_is_honoured(self, references):
        spec = DEFAULT_REGISTRY.get("edge-churn", seed=3)
        series = [row["oracle_slr"] for row in references["edge-churn"]["steps"]]
        session = PlacementSession(
            spec, "task-eft", RandomTaskEftPolicy(), oracle_slr=series
        )
        got = session.run().as_dict(include_timing=False)
        assert canonical(got) == canonical(references["edge-churn"])


# Evaluator traffic per event (scored placements, value-cache hits) of a
# seed-3 task-eft replay, recorded at the commit before decisions were
# remembered on cached timelines: the memo removes EFT arithmetic, never
# an ``evaluate`` / ``timeline`` call, so these may not move.
RECORDED_TRAFFIC = {
    "edge-churn": (
        [84, 84, 84, 84, 84, 84, 84, 84, 84, 84],
        [54, 73, 74, 76, 75, 69, 77, 79, 76, 79],
    ),
    "flash-crowd": (
        [34, 51, 68, 85, 85, 102, 119, 136, 153, 153, 153, 153, 170, 170],
        [19, 45, 63, 79, 74, 92, 111, 130, 144, 135, 139, 141, 167, 154],
    ),
}


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("preset", sorted(RECORDED_TRAFFIC))
def test_replay_evaluator_traffic_equals_the_recorded_series(preset, oracle):
    # With the oracle on, the lazy oracle scores every event through its
    # own pool: none of that traffic may show in the per-step counts.
    evaluations, hits = RECORDED_TRAFFIC[preset]
    spec = DEFAULT_REGISTRY.get(preset, seed=3)
    steps = PlacementSession(spec, "task-eft", RandomTaskEftPolicy(), oracle=oracle).run().steps
    assert [step.evaluations for step in steps] == evaluations
    assert [step.cache_hit_rate for step in steps] == [h / e for h, e in zip(hits, evaluations)]


@pytest.mark.parametrize("preset", ["edge-churn", "flash-crowd"])
def test_pool_holds_one_evaluator_per_live_graph(preset):
    """A network event retires every replaced problem's evaluator: the
    pool never keeps one the session cannot reach again."""
    spec = DEFAULT_REGISTRY.get(preset, seed=3)
    session = PlacementSession(spec, "task-eft", RandomTaskEftPolicy(), oracle=False)
    while session.remaining:
        record = session.step()
        assert len(session._pool._by_problem) <= record.num_graphs


@pytest.mark.parametrize("preset", ["flash-crowd", "mixed-dynamics"])
def test_scenario_states_yields_each_events_own_problems(preset):
    """Collected yields keep their lengths: each event's problems are the
    graphs live at that event, not a list a later arrival grew."""
    mat = materialize(DEFAULT_REGISTRY.get(preset, seed=3))
    states = list(scenario_states(mat))
    assert [event for event, _, _ in states] == [None, *mat.events]
    live = list(mat.initial_graphs)
    previous = None
    for event, problems, network in states:
        if event is not None and event.kind == "arrival":
            live.append(event.graph)
        assert isinstance(problems, tuple)
        assert [p.graph for p in problems] == live
        assert all(p.network is network for p in problems)
        if event is not None and event.kind == "arrival":
            # Earlier problems keep their identity (and their evaluators).
            assert all(a is b for a, b in zip(problems, previous))
        previous = problems


class TestStepSemantics:
    def test_event_accounting(self):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        session = PlacementSession(spec, "task-eft", RandomTaskEftPolicy())
        total = session.num_events
        assert total > 0 and session.remaining == total
        records = []
        while session.remaining:
            records.append(session.step())
        assert len(session.steps) == total == len(records)
        assert [r.index for r in records] == list(range(total))

    def test_step_past_end_raises(self):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        session = PlacementSession(spec, "task-eft", RandomTaskEftPolicy())
        session.run()
        with pytest.raises(StopIteration):
            session.step()

    def test_report_is_idempotent(self):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        session = PlacementSession(spec, "task-eft", RandomTaskEftPolicy())
        session.run()
        first = session.report().as_dict(include_timing=False)
        second = session.report().as_dict(include_timing=False)
        assert canonical(first) == canonical(second)

    def test_every_report_absorbs_what_came_since_the_last(self):
        """A report mid-stream and then more events: the registry's
        ``scenario.evaluator.*`` counts end equal to the session's totals."""
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        session = PlacementSession(
            spec, "task-eft", RandomTaskEftPolicy(), oracle=False
        )
        before = metrics().snapshot()
        for _ in range(2):
            session.step()
            session.report()
        prefix = "scenario.evaluator."
        absorbed = {
            name[len(prefix):]: value
            for name, value in metrics().snapshot().delta(before).counters.items()
            if name.startswith(prefix)
        }
        totals = session.evaluator_stats().as_dict()
        del totals["hit_rate"]
        assert absorbed == {name: value for name, value in totals.items() if value}
        assert session.steps[1].evaluations > 0

    def test_rejects_bad_episode_multiplier(self):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        with pytest.raises(ValueError):
            PlacementSession(
                spec, "task-eft", RandomTaskEftPolicy(), episode_multiplier=0
            )
