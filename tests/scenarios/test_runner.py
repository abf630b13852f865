"""ScenarioRunner: replay semantics, determinism, adaptation accounting."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import AdaptivePolicy, RandomPlacementPolicy, RandomTaskEftPolicy
from repro.devices import ChurnConfig
from repro.parallel import ForkBackend
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ClusterSpec,
    RelocationSpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
    materialize,
)


@pytest.fixture(scope="module")
def small_spec():
    return ScenarioSpec(
        name="unit-small",
        seed=5,
        workload=WorkloadSpec(initial_graphs=2, num_tasks=6, arrivals=((2, 1),)),
        cluster=ClusterSpec(num_devices=6, support_prob=0.8),
        churn=ChurnConfig(
            min_devices=5,
            max_devices=6,
            num_changes=4,
            bandwidth_drift_prob=0.2,
            compute_slowdown_prob=0.2,
        ),
        relocation=RelocationSpec(pipeline_frequency_hz=10.0),
    )


@pytest.fixture(scope="module")
def result(small_spec):
    return ScenarioRunner(small_spec).run(
        {"random": RandomPlacementPolicy(), "task-eft": RandomTaskEftPolicy()}
    )


class TestReplaySemantics:
    def test_one_step_record_per_event(self, small_spec, result):
        num_events = materialize(small_spec).num_events
        for report in result.reports.values():
            assert len(report.steps) == num_events
            assert [s.index for s in report.steps] == list(range(num_events))

    def test_slr_never_below_lower_bound(self, result):
        for report in result.reports.values():
            assert all(s.mean_slr >= 0.99 for s in report.steps)
            assert all(s.oracle_slr >= 0.99 for s in report.steps)

    def test_graph_count_grows_at_arrivals(self, result):
        report = result.reports["random"]
        counts = {s.kind: s.num_graphs for s in report.steps}
        assert counts["arrival"] == 3  # 2 initial + 1 arrived

    def test_migration_accounting_is_consistent(self, result):
        for report in result.reports.values():
            for s in report.steps:
                assert s.migration_cost_ms >= 0
                assert s.migrated_tasks >= 0
                if s.migrated_tasks == 0:
                    assert s.migration_cost_ms == 0
                # spec sets pipeline_frequency_hz=10
                assert s.amortized_migration_ms == pytest.approx(s.migration_cost_ms / 10.0)

    def test_regret_is_slr_minus_oracle(self, result):
        for report in result.reports.values():
            for s in report.steps:
                assert s.regret == pytest.approx(s.mean_slr - s.oracle_slr)

    def test_evaluator_stats_flow_into_report(self, result):
        for report in result.reports.values():
            assert report.evaluator_stats["evaluations"] > 0
            assert any(s.evaluations > 0 for s in report.steps)

    def test_summary_properties(self, result):
        report = result.reports["task-eft"]
        assert report.mean_slr == pytest.approx(np.mean([s.mean_slr for s in report.steps]))
        assert report.total_migrated_tasks == sum(s.migrated_tasks for s in report.steps)

    def test_requires_at_least_one_policy(self, small_spec):
        with pytest.raises(ValueError):
            ScenarioRunner(small_spec).run({})

    def test_disabled_oracle_reports_zero_regret(self, small_spec):
        result = ScenarioRunner(small_spec, oracle=False).run(
            {"task-eft": RandomTaskEftPolicy()}
        )
        for s in result.reports["task-eft"].steps:
            assert s.regret == 0.0 and s.oracle_slr == 0.0

    def test_oracle_series_is_memoized_across_runs(self, small_spec):
        runner = ScenarioRunner(small_spec)
        calls = 0
        original = runner._oracle_slr

        def counting(backend=None):
            nonlocal calls
            calls += 1
            return original(backend=backend)

        runner._oracle_slr = counting
        runner.run({"task-eft": RandomTaskEftPolicy()})
        runner.run({"random": RandomPlacementPolicy()})
        assert calls == 1

    def test_oracle_event_unaffected_by_later_arrivals(self, small_spec):
        # An event's oracle SLR is a pure function of that event's
        # identity: graphs arriving at later events must not leak into
        # it.  The oracle collects every yield of scenario_states before
        # scoring any, so a yield a later arrival could still grow would
        # hand earlier arrivals the final list — the regression this
        # pins down.
        base = dataclasses.replace(
            small_spec,
            workload=dataclasses.replace(small_spec.workload, arrivals=((1, 1), (2, 1))),
            churn=dataclasses.replace(small_spec.churn, num_changes=0),
        )
        truncated = dataclasses.replace(
            base, workload=dataclasses.replace(base.workload, arrivals=((1, 1),))
        )
        full_series = ScenarioRunner(base)._oracle_slr()
        truncated_series = ScenarioRunner(truncated)._oracle_slr()
        assert len(full_series) == 2 and len(truncated_series) == 1
        assert full_series[0] == truncated_series[0]


class TestDeterminism:
    def test_same_seed_bit_identical_reports(self, small_spec, result):
        again = ScenarioRunner(small_spec).run(
            {"random": RandomPlacementPolicy(), "task-eft": RandomTaskEftPolicy()}
        )
        for name in result.reports:
            assert again.reports[name].as_dict() == result.reports[name].as_dict()

    def test_report_independent_of_other_policies(self, small_spec, result):
        alone = ScenarioRunner(small_spec).run({"task-eft": RandomTaskEftPolicy()})
        assert alone.reports["task-eft"].as_dict() == result.reports["task-eft"].as_dict()

    def test_different_seed_changes_reports(self, small_spec, result):
        reseeded = dataclasses.replace(small_spec, seed=6)
        other = ScenarioRunner(reseeded).run({"task-eft": RandomTaskEftPolicy()})
        assert other.reports["task-eft"].as_dict() != result.reports["task-eft"].as_dict()

    def test_as_dict_hides_timing_by_default(self, result):
        report = result.reports["random"]
        plain = report.as_dict()
        assert "replace_seconds" not in plain["steps"][0]
        timed = report.as_dict(include_timing=True)
        assert "replace_seconds" in timed["steps"][0]


class TestAdaptHook:
    def test_policies_receive_every_event(self, small_spec):
        seen = []

        class Recorder(AdaptivePolicy):
            name = "recorder"

            def adapt(self, event):
                seen.append((event.index, event.kind))

            def search(self, problem, objective, initial_placement, episode_length, rng, evaluator=None):
                return RandomPlacementPolicy().search(
                    problem, objective, initial_placement, episode_length, rng, evaluator
                )

        mat = materialize(small_spec)
        ScenarioRunner(mat).run({"recorder": Recorder()})
        assert seen == [(e.index, e.kind) for e in mat.events]

    def test_single_policy_stays_direct_at_any_worker_count(self, small_spec):
        # Regression (backend refactor): `workers > 1` with one policy
        # has nothing to fan out, so the replay must stay on the direct
        # path — locally-defined (non-picklable) policies keep working
        # and adapt() side effects stay caller-visible.
        seen = []

        class Local(AdaptivePolicy):
            name = "local"

            def adapt(self, event):
                seen.append(event.index)

            def search(self, problem, objective, initial_placement, episode_length, rng, evaluator=None):
                return RandomPlacementPolicy().search(
                    problem, objective, initial_placement, episode_length, rng, evaluator
                )

        result = ScenarioRunner(small_spec).run({"local": Local()}, backend=ForkBackend(4))
        assert "local" in result.reports
        assert seen  # adapt() mutations landed on the caller's object

    def test_default_adapt_is_noop(self):
        assert RandomPlacementPolicy().adapt(object()) is None


class TestPresetAcceptance:
    """Acceptance criterion: every preset replays with both policies."""

    @pytest.mark.slow
    @pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
    def test_preset_end_to_end(self, name):
        spec = DEFAULT_REGISTRY.get(name)
        mat = materialize(spec)
        result = ScenarioRunner(mat).run(
            {"random": RandomPlacementPolicy(), "task-eft": RandomTaskEftPolicy()}
        )
        for report in result.reports.values():
            assert len(report.steps) == mat.num_events
            assert all(np.isfinite(s.mean_slr) and s.mean_slr >= 0.99 for s in report.steps)
            assert all(s.migration_cost_ms >= 0 for s in report.steps)
        # determinism across replays, per preset
        again = ScenarioRunner(mat).run({"task-eft": RandomTaskEftPolicy()})
        assert again.reports["task-eft"].as_dict() == result.reports["task-eft"].as_dict()
