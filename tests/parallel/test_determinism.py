"""Worker-count independence: the parallel engine's core contract.

Training, evaluation sweeps, and scenario replays must produce
bit-identical outputs whether they run serially or fanned out — the
only fields allowed to differ are wall-clock timings.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines import RandomPlacementPolicy, RandomTaskEftPolicy
from repro.baselines.giph_policy import GiPHSearchPolicy
from repro.baselines.placeto import PlacetoAgent
from repro.baselines.task_eft import TaskEftAgent
from repro.core import (
    GiPHAgent,
    PlacementProblem,
    ReinforceConfig,
    ReinforceTrainer,
)
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.experiments import QUICK, fig4, fig14, table6
from repro.experiments.runner import HeftPolicy, evaluate_policies
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.parallel import ForkBackend, InlineBackend, MergeBackend, ShardBackend, make_backend
from repro.devices.dynamics import ChurnConfig
from repro.scenarios import (
    ClusterSpec,
    ScenarioRunner,
    ScenarioSpec,
    WorkloadSpec,
)
from repro.sim import MakespanObjective
from repro.store import RunStore
from repro.telemetry import metrics


def make_problems(count: int, seed: int, num_tasks: int = 6, num_devices: int = 3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks), rng)
        network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
        out.append(PlacementProblem(graph, network))
    return out


@pytest.fixture(scope="module")
def problems():
    return make_problems(3, seed=0)


def train_weights(problems, batch_size, workers=1, episodes=6, backend=None):
    agent = GiPHAgent(np.random.default_rng(7))
    trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episodes=episodes))
    stats = trainer.train(
        problems,
        np.random.default_rng(42),
        batch_size=batch_size,
        backend=backend or make_backend(workers=workers),
    )
    return agent.state_dict(), stats


def assert_same_weights(a, b):
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), key


class TestBatchedTraining:
    def test_batched_is_worker_count_independent(self, problems):
        serial_w, serial_h = train_weights(problems, batch_size=3, workers=1)
        fanned_w, fanned_h = train_weights(problems, batch_size=3, workers=4)
        assert_same_weights(serial_w, fanned_w)
        assert serial_h == fanned_h  # EpisodeStats are fully deterministic

    def test_k1_reproduces_serial_semantics(self, problems):
        serial_w, serial_h = train_weights(problems, batch_size=1, workers=1)
        # K=1 must be today's serial trainer exactly — regardless of the
        # worker count, which has nothing to fan out at K=1.
        k1_w, k1_h = train_weights(problems, batch_size=1, workers=4)
        assert_same_weights(serial_w, k1_w)
        assert serial_h == k1_h

    def test_batched_history_bookkeeping(self, problems):
        _, stats = train_weights(problems, batch_size=4, workers=2, episodes=6)
        assert len(stats) == 6
        assert [s.episode for s in stats] == list(range(6))
        assert all(np.isfinite(s.grad_norm) for s in stats)

    def test_batched_rejects_unreseedable_noisy_objective(self, problems):
        class OpaqueNoisy:
            """Non-deterministic and no ``reseeded`` hook."""

            deterministic = False

            def evaluate(self, cost_model, placement):
                return 1.0

        agent = GiPHAgent(np.random.default_rng(0))
        trainer = ReinforceTrainer(agent, OpaqueNoisy(), ReinforceConfig(episodes=2))
        with pytest.raises(ValueError, match="reseeded"):
            trainer.train(problems, np.random.default_rng(2), batch_size=2)


class TestBatchedRoundsOnTheStore:
    """Each batched round is one fan-out, so rounds ride the
    store-mediated backends too: a shard run publishes every slot, and
    the merge pass replays the whole training from the store."""

    def test_shard_run_matches_inline(self, problems, tmp_path):
        expected, _ = train_weights(problems, batch_size=3)
        shard = ShardBackend(RunStore(tmp_path), "batched", 2, 0)
        assert_same_weights(expected, train_weights(problems, batch_size=3, backend=shard)[0])

    def test_merge_replays_the_shard_run(self, problems, tmp_path):
        store = RunStore(tmp_path)
        sharded, _ = train_weights(problems, 3, backend=ShardBackend(store, "batched", 2, 0))
        merged, _ = train_weights(problems, 3, backend=MergeBackend(store, "batched"))
        assert_same_weights(sharded, merged)


def train_noisy_weights(problems, workers, batch_size=3, episodes=6):
    agent = GiPHAgent(np.random.default_rng(7))
    trainer = ReinforceTrainer(
        agent,
        MakespanObjective(noise=0.2, rng=np.random.default_rng(1)),
        ReinforceConfig(episodes=episodes),
    )
    stats = trainer.train(
        problems,
        np.random.default_rng(42),
        batch_size=batch_size,
        backend=make_backend(workers=workers),
    )
    return agent.state_dict(), stats


class TestNoiseResamplingTraining:
    """Batched REINFORCE with a noisy objective: per-episode derived
    noise streams instead of the old blanket rejection."""

    def test_worker_count_independence(self, problems):
        serial_w, serial_h = train_noisy_weights(problems, workers=1)
        fanned_w, fanned_h = train_noisy_weights(problems, workers=4)
        assert_same_weights(serial_w, fanned_w)
        assert serial_h == fanned_h

    def test_noise_actually_resampled(self, problems):
        # The noisy run must differ from the noise-free run — otherwise
        # the mode silently dropped the noise instead of deriving streams.
        noisy_w, _ = train_noisy_weights(problems, workers=1)
        clean_w, _ = train_weights(problems, batch_size=3, workers=1)
        assert any(
            not np.array_equal(noisy_w[key], clean_w[key]) for key in noisy_w
        )


class TestEvaluatePolicies:
    def test_worker_count_independence(self, problems):
        policies = {
            "heft": HeftPolicy(),
            "task-eft": RandomTaskEftPolicy(),
            "random": RandomPlacementPolicy(),
        }
        serial = evaluate_policies(
            policies, problems, np.random.default_rng(5), backend=InlineBackend()
        )
        fanned = evaluate_policies(
            policies, problems, np.random.default_rng(5), backend=ForkBackend(4)
        )
        for name in policies:
            assert np.array_equal(serial.curves[name], fanned.curves[name]), name
            assert serial.finals[name] == fanned.finals[name], name
            assert serial.traces[name] == fanned.traces[name], name
            assert (
                serial.evaluator_stats[name].as_dict() == fanned.evaluator_stats[name].as_dict()
            ), name

    def test_noise_path_worker_count_independent(self, problems):
        policies = {"task-eft": RandomTaskEftPolicy()}
        serial = evaluate_policies(
            policies, problems, np.random.default_rng(9), noise=0.2, backend=InlineBackend()
        )
        fanned = evaluate_policies(
            policies, problems, np.random.default_rng(9), noise=0.2, backend=ForkBackend(3)
        )
        assert serial.finals["task-eft"] == fanned.finals["task-eft"]

    def test_gnn_counts_match_across_backends_and_the_registry(self, problems):
        """fig4's policy set: per-policy GNN passes are backend-independent
        ints, and each sweep's ``gnn.forwards`` registry delta is their sum
        (fork workers ship their counter deltas home)."""
        rng = np.random.default_rng(3)
        policies = {
            "giph": GiPHSearchPolicy(GiPHAgent(rng)),
            "giph-task-eft": TaskEftAgent(rng),
            "random-task-eft": RandomTaskEftPolicy(),
            "random": RandomPlacementPolicy(),
            "placeto": PlacetoAgent(rng, num_devices=3),
        }
        forwards = metrics().counter("gnn.forwards")
        passes = []
        for backend in (InlineBackend(), ForkBackend(2)):
            before = forwards.value
            result = evaluate_policies(policies, problems, np.random.default_rng(5), backend=backend)
            counts = {
                name: (s["forwards"], s["backwards"]) for name, s in result.gnn.items()
            }
            assert all(type(n) is int for pair in counts.values() for n in pair)
            assert forwards.value - before == sum(f for f, _ in counts.values())
            passes.append(counts)
        assert passes[0] == passes[1]
        assert passes[0]["giph"][0] > 0 and passes[0]["giph-task-eft"][0] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_noisy_objective_rejected(self, problems, workers):
        # Any worker count: cases see pickled objective copies, so a
        # shared noise rng could not advance across cases as it used to.
        shared = MakespanObjective(noise=0.1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-deterministic"):
            evaluate_policies(
                {"r": RandomPlacementPolicy()},
                problems,
                np.random.default_rng(1),
                objective=shared,
                backend=make_backend(workers=workers),
            )


class TestNoiseSharedCaseStreams:
    """The fig4 panel-comparability mechanism: handing evaluate_policies
    equal-seeded rngs must evaluate the same case streams regardless of
    the noise level, so panels differ only in the injected noise."""

    def test_noise_level_does_not_move_case_streams(self, problems):
        policies = {"random": RandomPlacementPolicy()}
        clean = evaluate_policies(policies, problems, np.random.default_rng(11), noise=0.0)
        noisy = evaluate_policies(policies, problems, np.random.default_rng(11), noise=0.3)
        # Random search proposes placements independently of objective
        # values, so identical case streams mean identical relocation
        # sequences — while the sampled values themselves differ.
        assert [t.relocation_counts for t in clean.traces["random"]] == [
            t.relocation_counts for t in noisy.traces["random"]
        ]
        assert clean.finals["random"] != noisy.finals["random"]


def deterministic_steps(report):
    """Step fields minus wall-clock timing."""
    return [
        (
            s.index,
            s.kind,
            s.num_graphs,
            s.num_devices,
            s.mean_value,
            s.mean_slr,
            s.oracle_slr,
            s.regret,
            s.migrated_tasks,
            s.migration_cost_ms,
            s.evaluations,
            s.cache_hit_rate,
        )
        for s in report.steps
    ]


def tiny_spec(name: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        seed=seed,
        workload=WorkloadSpec(initial_graphs=2, num_tasks=5),
        cluster=ClusterSpec(num_devices=5),
        churn=ChurnConfig(min_devices=4, max_devices=5, num_changes=2),
    )


class TestScenarioReplay:
    POLICIES = staticmethod(
        lambda: {"task-eft": RandomTaskEftPolicy(), "random": RandomPlacementPolicy()}
    )

    def test_worker_count_independence(self):
        spec = tiny_spec("tiny-churn", seed=1)
        serial = ScenarioRunner(spec).run(self.POLICIES(), backend=InlineBackend())
        fanned = ScenarioRunner(spec).run(self.POLICIES(), backend=ForkBackend(4))
        assert serial.oracle_slr == fanned.oracle_slr
        for name in serial.reports:
            assert deterministic_steps(serial.reports[name]) == deterministic_steps(
                fanned.reports[name]
            ), name
            assert (
                serial.reports[name].evaluator_stats == fanned.reports[name].evaluator_stats
            ), name


@pytest.fixture(scope="module")
def micro_fig14_scale():
    return dataclasses.replace(
        QUICK,
        name="micro-fig14",
        num_tasks=5,
        num_devices=3,
        train_graphs=2,
        test_cases=2,
        num_networks=2,
        convergence_episodes=2,
        convergence_eval_every=1,
        convergence_eval_cases=1,
    )


@pytest.fixture(scope="module")
def fig14_serial(micro_fig14_scale):
    return fig14.run(micro_fig14_scale, seed=3, backend=InlineBackend())


class TestFig14Seeding:
    def test_worker_count_independence(self, micro_fig14_scale, fig14_serial):
        fanned = fig14.run(micro_fig14_scale, seed=3, backend=ForkBackend(2))
        assert fig14_serial.data == fanned.data

    def test_seed_changes_the_figure(self, micro_fig14_scale, fig14_serial):
        # The seed used to be swallowed by hardcoded eval/train streams.
        other = fig14.run(micro_fig14_scale, seed=4)
        assert fig14_serial.data != other.data

    def test_cells_draw_from_distinct_streams(self, fig14_serial):
        # Same variant, different settings (and vice versa) must not share
        # a training stream: identical curves across cells would be the
        # old spurious correlation.
        settings = list(fig14_serial.data)
        giph_curves = [tuple(fig14_serial.data[s]["giph"]) for s in settings]
        assert len(set(giph_curves)) > 1


@pytest.fixture(scope="module")
def micro_experiment_scale():
    """Smallest scale exercising the formerly-serial experiment grids."""
    return dataclasses.replace(
        QUICK,
        name="micro-parallel",
        num_tasks=5,
        num_devices=3,
        train_graphs=2,
        test_cases=2,
        episodes=2,
        num_networks=2,
        pairwise_cases=2,
    )


class TestFig4Parallel:
    """fig4 joined the parallel rollout in PR 4: training cells and eval
    cases fan out, and the two noise panels of a dataset share case
    seeds (the seed version evaluated them on different cases)."""

    @pytest.fixture(scope="class")
    def serial(self, micro_experiment_scale):
        return fig4.run(micro_experiment_scale, seed=3, backend=InlineBackend())

    @staticmethod
    def deterministic_data(report):
        # Strips wall-clock members (search_seconds, nested gnn_seconds)
        # the same way the shard-merge equality does.
        return report.stable_data()

    def test_worker_count_independence(self, micro_experiment_scale, serial):
        fanned = fig4.run(micro_experiment_scale, seed=3, backend=ForkBackend(4))
        assert self.deterministic_data(serial) == self.deterministic_data(fanned)

    def test_noise_panels_are_comparable(self, serial):
        # Panels of one dataset must record the same eval stream (same
        # case seeds / initial placements); panels of different datasets
        # must not.
        by_dataset: dict[str, list] = {}
        for panel, payload in serial.data.items():
            dataset = panel.split(",")[0]
            by_dataset.setdefault(dataset, []).append(payload["eval_stream"])
        for dataset, streams in by_dataset.items():
            assert len(streams) == 2 and streams[0] == streams[1], dataset
        (single_stream, _), (multi_stream, _) = by_dataset.values()
        assert single_stream != multi_stream

    def test_seed_moves_the_figure(self, micro_experiment_scale, serial):
        other = fig4.run(micro_experiment_scale, seed=4, backend=InlineBackend())
        assert self.deterministic_data(serial) != self.deterministic_data(other)


class TestTable6Parallel:
    """table6's six-variant training grid — the widest formerly-serial
    single-dataset grid — fans out with bit-identical reports."""

    def test_worker_count_independence(self, micro_experiment_scale):
        serial = table6.run(micro_experiment_scale, seed=3, backend=InlineBackend())
        fanned = table6.run(micro_experiment_scale, seed=3, backend=ForkBackend(4))
        assert serial.data == fanned.data


class TestInRunOracle:
    """The fresh-search oracle inside a single ScenarioRunner.run fans
    its events out; per-(event, graph) streams keep the series fixed."""

    def test_oracle_worker_count_independence(self):
        spec = tiny_spec("oracle-fanout", seed=9)
        serial = ScenarioRunner(spec)._oracle_slr(backend=InlineBackend())
        fanned = ScenarioRunner(spec)._oracle_slr(backend=ForkBackend(4))
        assert serial == fanned

    def test_oracle_independent_of_replayed_policies(self):
        # run() computes the oracle with the caller's worker count; the
        # resulting series must match a pure serial oracle pass.
        spec = tiny_spec("oracle-in-run", seed=9)
        baseline = ScenarioRunner(spec)._oracle_slr(backend=InlineBackend())
        result = ScenarioRunner(spec).run(
            {"task-eft": RandomTaskEftPolicy()}, backend=ForkBackend(3)
        )
        assert list(result.oracle_slr) == baseline
