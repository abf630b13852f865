"""REINFORCE trainer and search-loop tests (paper §4.1, App. B.7)."""

import numpy as np
import pytest

from repro.baselines import PlacetoAgent, TaskEftAgent
from repro.core import (
    GiPHAgent,
    ReinforceConfig,
    ReinforceTrainer,
    average_reward_baseline,
    discounted_returns,
    random_placement,
    run_search,
)
from repro.parallel import ForkBackend
from repro.sim import MakespanObjective


class TestReturnsMath:
    def test_discounted_returns(self):
        np.testing.assert_allclose(
            discounted_returns([1.0, 2.0, 3.0], gamma=0.5),
            [1 + 0.5 * 2 + 0.25 * 3, 2 + 0.5 * 3, 3.0],
        )

    def test_gamma_one_is_suffix_sum(self):
        np.testing.assert_allclose(discounted_returns([1.0, 1.0, 1.0], 1.0), [3, 2, 1])

    def test_gamma_zero_is_immediate(self):
        np.testing.assert_allclose(discounted_returns([1.0, 2.0, 3.0], 0.0), [1, 2, 3])

    def test_average_reward_baseline(self):
        # b_t = mean of rewards before t; b_0 = 0 (paper B.7).
        np.testing.assert_allclose(
            average_reward_baseline([2.0, 4.0, 6.0]), [0.0, 2.0, 3.0]
        )

    def test_baseline_single_step(self):
        np.testing.assert_allclose(average_reward_baseline([5.0]), [0.0])


class TestConfig:
    @pytest.mark.parametrize("kwargs", [{"episodes": 0}])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ReinforceConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"episode_length": 0}, "episode_length must be >= 1"),
            ({"episode_length": -2}, "episode_length must be >= 1"),
            ({"learning_rate": 0.0}, "learning_rate must be positive"),
            ({"learning_rate": -1.0}, "learning_rate must be positive"),
        ],
    )
    def test_rejected_where_it_is_written(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ReinforceConfig(**kwargs)


AGENT_KINDS = {
    "giph": lambda rng: GiPHAgent(rng, embedding="giph-ne-pol"),
    "task-eft": TaskEftAgent,
    "placeto": lambda rng: PlacetoAgent(rng, num_devices=3),
}


@pytest.mark.parametrize("kind", sorted(AGENT_KINDS))
class TestOneTrainerForEveryAgent:
    def test_episode_counts_below_one_are_rejected(self, diamond_problem, kind):
        rng = np.random.default_rng(0)
        trainer = ReinforceTrainer(AGENT_KINDS[kind](rng), MakespanObjective())
        state = rng.bit_generator.state
        for bad in (0, -3):
            with pytest.raises(ValueError, match="episodes must be >= 1"):
                trainer.train([diamond_problem], rng, episodes=bad)
        with pytest.raises(ValueError, match="at least one problem"):
            trainer.train([], rng, episodes=1)
        assert trainer.history == [] and rng.bit_generator.state == state

    def test_episode_stats_and_default_length(self, diamond_problem, kind):
        rng = np.random.default_rng(1)
        agent = AGENT_KINDS[kind](rng)
        trainer = ReinforceTrainer(agent, MakespanObjective())
        before = [p.data.copy() for p in agent.parameters()]
        stats = trainer.train([diamond_problem], rng, episodes=4)
        assert [ep.episode for ep in stats] == [0, 1, 2, 3] and stats == trainer.history
        assert all(ep.best_value <= min(ep.initial_value, ep.final_value) for ep in stats)
        assert all(np.isfinite(ep.grad_norm) for ep in stats)
        assert any((b != p.data).any() for b, p in zip(before, agent.parameters()))
        # One evaluation per step plus the initial placement: 2|V| relocations,
        # or one |V|-step traversal for Placeto.
        steps = 4 if kind == "placeto" else 8
        assert trainer._evaluators.stats().evaluations == 4 * (steps + 1)
        # The agent's per-problem handle is cached beside the evaluator.
        assert set(trainer._handles) == {id(diamond_problem)}

    def test_batched_rounds_are_worker_count_independent(self, diamond_problem, kind):
        def weights(workers):
            rng = np.random.default_rng(2)
            agent = AGENT_KINDS[kind](rng)
            stats = ReinforceTrainer(agent, MakespanObjective()).train(
                [diamond_problem], rng, episodes=3, batch_size=2, backend=ForkBackend(workers)
            )
            return [p.data.tobytes() for p in agent.parameters()], stats

        assert weights(1) == weights(2)


class TestTraining:
    def test_episode_updates_parameters(self, diamond_problem):
        rng = np.random.default_rng(0)
        agent = GiPHAgent(rng, embedding="giph")
        trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episode_length=4))
        before = {k: v.copy() for k, v in agent.state_dict().items()}
        stats = trainer.run_episode(diamond_problem, rng)
        after = agent.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)
        assert np.isfinite(stats.grad_norm)
        assert stats.best_value <= stats.initial_value + 1e-9

    def test_train_samples_problems(self, diamond_problem, chain_problem):
        rng = np.random.default_rng(1)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episode_length=3))
        stats = trainer.train([diamond_problem, chain_problem], rng, episodes=6)
        assert len(stats) == 6
        assert len(trainer.history) == 6

    def test_train_empty_problems_raises(self):
        rng = np.random.default_rng(0)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trainer = ReinforceTrainer(agent, MakespanObjective())
        with pytest.raises(ValueError):
            trainer.train([], rng)

    def test_train_zero_episodes_rejected(self, chain_problem):
        # An explicit 0 is an error, not a request for config.episodes.
        rng = np.random.default_rng(0)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trainer = ReinforceTrainer(agent, MakespanObjective())
        with pytest.raises(ValueError, match="episodes"):
            trainer.train([chain_problem], rng, episodes=0)
        assert trainer.history == []

    def test_learning_improves_policy_on_tiny_instance(self, chain_problem):
        """End-to-end sanity: on the 2-task/2-device instance the trained
        policy should find the co-location optimum more reliably than at
        init.  (Small scale keeps pure-NumPy runtime in check.)"""
        rng = np.random.default_rng(7)
        agent = GiPHAgent(rng, embedding="giph")
        objective = MakespanObjective()
        trainer = ReinforceTrainer(
            agent, objective, ReinforceConfig(episode_length=4, learning_rate=0.02)
        )
        trainer.train([chain_problem], rng, episodes=30)
        first5 = np.mean([s.best_value for s in trainer.history[:5]])
        last5 = np.mean([s.best_value for s in trainer.history[-5:]])
        assert last5 <= first5 + 1e-9


class TestSearch:
    def test_best_over_time_non_increasing(self, diamond_problem):
        rng = np.random.default_rng(3)
        agent = GiPHAgent(rng, embedding="giph")
        trace = run_search(
            agent,
            diamond_problem,
            MakespanObjective(),
            initial_placement=random_placement(diamond_problem, rng),
        )
        diffs = np.diff(trace.best_over_time)
        assert (diffs <= 1e-12).all()
        assert trace.best_value == trace.best_over_time[-1]

    def test_trace_lengths(self, diamond_problem):
        rng = np.random.default_rng(4)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trace = run_search(
            agent, diamond_problem, MakespanObjective(), [0, 0, 0, 2], episode_length=5
        )
        assert trace.num_steps == 5
        assert len(trace.best_over_time) == 6
        assert len(trace.values) == 6

    def test_best_placement_feasible_and_matches_value(self, diamond_problem):
        rng = np.random.default_rng(5)
        agent = GiPHAgent(rng, embedding="giph")
        trace = run_search(agent, diamond_problem, MakespanObjective(), [0, 0, 0, 2])
        diamond_problem.validate_placement(trace.best_placement)
        assert MakespanObjective().evaluate(
            diamond_problem.cost_model, trace.best_placement
        ) == pytest.approx(trace.best_value)

    def test_relocation_counts_bounded_by_steps(self, diamond_problem):
        rng = np.random.default_rng(6)
        agent = GiPHAgent(rng, embedding="giph")
        trace = run_search(agent, diamond_problem, MakespanObjective(), [0, 0, 0, 2])
        assert sum(trace.relocation_counts) <= trace.num_steps

    def test_same_seed_search_deterministic(self, diamond_problem):
        agent = GiPHAgent(np.random.default_rng(8), embedding="giph")
        traces = []
        for _ in range(2):
            agent.rng = np.random.default_rng(80)
            traces.append(run_search(agent, diamond_problem, MakespanObjective(), [0, 0, 0, 2]))
        assert traces[0] == traces[1]


class TestAgentStateDict:
    def test_roundtrip(self, diamond_problem):
        rng = np.random.default_rng(9)
        a1 = GiPHAgent(rng, embedding="giph")
        a2 = GiPHAgent(np.random.default_rng(10), embedding="giph")
        a2.load_state_dict(a1.state_dict())
        from repro.core import GpNetBuilder

        net = GpNetBuilder(diamond_problem).build([0, 0, 0, 2])
        np.testing.assert_allclose(a1.embedding(net).data, a2.embedding(net).data)


class TestInitializers:
    def test_random_placement_feasible(self, diamond_problem):
        rng = np.random.default_rng(11)
        for _ in range(20):
            diamond_problem.validate_placement(random_placement(diamond_problem, rng))
