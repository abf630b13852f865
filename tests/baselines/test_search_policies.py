"""Tests for the search-policy baselines: random, task-EFT, Placeto, RNN."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines import (
    GiPHSearchPolicy,
    PlacetoAgent,
    PlacetoLayout,
    RandomPlacementPolicy,
    RandomTaskEftPolicy,
    RnnPlacer,
    TaskEftAgent,
    TaskViewBuilder,
    operator_embeddings,
)
from repro.core import GiPHAgent, PlacementProblem, ReinforceConfig, ReinforceTrainer, SearchTrace
from repro.experiments import HeftPolicy
from repro.runtime import PlacementEvaluator
from repro.sim import MakespanObjective

OBJ = MakespanObjective()


def rng(seed=0):
    return np.random.default_rng(seed)


class TestTraceFromValues:
    def test_best_over_time(self):
        t = SearchTrace.from_values([(0,), (1,), (0,)], [5.0, 3.0, 4.0])
        assert t.best_value == 3.0
        assert t.best_over_time == (5.0, 3.0, 3.0)
        assert t.best_placement == (1,)
        assert t.relocation_counts == (0,)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SearchTrace.from_values([], [])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GiPHSearchPolicy(GiPHAgent(rng(40))),  # core.search.run_search
            lambda: TaskEftAgent(rng(40)),
            lambda: PlacetoAgent(rng(40), num_devices=3),
            RandomPlacementPolicy,
            RandomTaskEftPolicy,
            HeftPolicy,
        ],
        ids=["run_search", "task-eft", "placeto", "random", "random-task-eft", "heft"],
    )
    def test_every_search_builds_the_same_kind_of_trace(self, diamond_problem, make):
        trace = make().search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(41))
        assert trace.num_steps == 8 and len(trace.relocation_counts) == 4
        assert trace.best_over_time == tuple(np.minimum.accumulate(trace.values))
        best = OBJ.evaluate(diamond_problem.cost_model, trace.best_placement)
        assert trace.best_value == min(trace.values) == best
        assert 0 <= sum(trace.relocation_counts) <= 8


class TestRandomPolicies:
    def test_random_placement_trace_shape(self, diamond_problem):
        trace = RandomPlacementPolicy().search(diamond_problem, OBJ, [0, 0, 0, 2], 6, rng())
        assert trace.num_steps == 6
        diamond_problem.validate_placement(trace.best_placement)

    def test_random_task_eft_improves_over_start(self, diamond_problem):
        # EFT relocation starting from the all-slowest placement should
        # find something strictly better within a few steps.
        start = [0, 0, 0, 2]
        trace = RandomTaskEftPolicy().search(diamond_problem, OBJ, start, 8, rng(1))
        assert trace.best_value <= trace.values[0]

    def test_random_task_eft_counts_relocations(self, diamond_problem):
        trace = RandomTaskEftPolicy().search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(2))
        assert sum(trace.relocation_counts) <= 8

    # RandomTaskEftPolicy draws an episode's tasks in one call; every
    # recorded stream rests on that call being the scalar draws.  The
    # examples sit on the widths at which NumPy changes its bounded-
    # integer kernel (8, 16 and 32-bit ranges).
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32), n=st.integers(1, 100_000), k=st.integers(0, 64))
    @example(seed=0, n=1, k=17)
    @example(seed=1, n=255, k=17)
    @example(seed=2, n=256, k=17)
    @example(seed=3, n=257, k=17)
    @example(seed=4, n=65_536, k=17)
    @example(seed=5, n=70_000, k=17)
    def test_one_sized_draw_is_the_scalar_draws(self, seed, n, k):
        batched, scalar = rng(seed), rng(seed)
        assert batched.integers(0, n, size=k).tolist() == [
            int(scalar.integers(0, n)) for _ in range(k)
        ]
        assert batched.random() == scalar.random()

    def test_noisy_objective_draws_a_sample_on_every_repeat(self, diamond_problem):
        """A step that moves nothing hands the evaluator the previous tuple
        object again; with a noisy objective that must still be a new
        sample, never the remembered value."""
        noisy = MakespanObjective(noise=0.3, rng=rng(42))
        evaluator = PlacementEvaluator(diamond_problem, noisy)
        scored = []
        evaluate = evaluator.evaluate
        evaluator.evaluate = lambda placement: scored.append(placement) or evaluate(placement)
        trace = RandomTaskEftPolicy().search(
            diamond_problem, noisy, [0, 0, 0, 2], 16, rng(3), evaluator=evaluator
        )
        assert evaluator.stats.exact_path == 16 + 1
        assert evaluator.stats.cache_hits == 0
        unmoved = [
            value
            for before, after, value in zip(scored, scored[1:], trace.values[1:])
            if before is after
        ]
        assert len(unmoved) >= 2 and len(set(unmoved)) > 1

    def test_infeasible_start_raises_before_the_generator_advances(self, diamond_problem):
        caller = rng(7)
        with pytest.raises(ValueError):
            RandomTaskEftPolicy().search(diamond_problem, OBJ, [0, 0, 0, 99], 8, caller)
        with pytest.raises(ValueError):
            RandomTaskEftPolicy().search(diamond_problem, OBJ, [0, 0, 0], 8, caller)
        assert caller.random() == rng(7).random()


class TestTaskEft:
    def test_task_view_structure(self, diamond_problem):
        view = TaskViewBuilder(diamond_problem).build([0, 0, 0, 2])
        assert view.num_nodes == 4
        assert view.is_pivot.all()
        assert view.num_edges == diamond_problem.graph.num_edges

    def test_agent_search_runs(self, diamond_problem):
        agent = TaskEftAgent(rng(3))
        trace = agent.search(diamond_problem, OBJ, [0, 0, 0, 2], 6, rng(4))
        assert trace.num_steps == 6
        diamond_problem.validate_placement(trace.best_placement)

    def test_select_task_masks_last(self, diamond_problem):
        agent = TaskEftAgent(rng(5))
        for _ in range(10):
            task, _ = agent.select_task(diamond_problem, [0, 0, 0, 2], last_task=1)
            assert task != 1

    def test_trainer_updates_params(self, diamond_problem):
        # Several episodes so at least one starts from a non-EFT-stable
        # placement (a stable start gives all-zero rewards and no update).
        agent = TaskEftAgent(rng(6))
        trainer = ReinforceTrainer(agent, OBJ)
        before = [p.data.copy() for p in agent.parameters()]
        stats = trainer.train([diamond_problem], rng(0), episodes=5)
        after = list(agent.parameters())
        assert any(ep.total_reward != 0.0 for ep in stats)
        assert any(not np.allclose(b, a.data) for b, a in zip(before, after))


class TestPlaceto:
    def test_features_shape_and_indicators(self, diamond_problem):
        placed = np.array([True, False, False, False])
        feats = PlacetoLayout(diamond_problem).features([0, 0, 0, 2], 1, placed)
        assert feats.shape == (4, 5)

    def test_head_fixed_to_device_count(self, diamond_problem):
        agent = PlacetoAgent(rng(8), num_devices=3)
        lp = agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
        assert lp.shape == (3,)

    def test_larger_network_rejected(self, diamond_problem):
        agent = PlacetoAgent(rng(9), num_devices=2)
        with pytest.raises(ValueError, match="retraining"):
            agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))

    def test_shrunken_network_masks_surplus_head(self, diamond_problem):
        # Head sized for 5 devices, network has 3: surplus outputs masked
        # (the Fig. 6 adaptivity setting where devices leave the cluster).
        agent = PlacetoAgent(rng(9), num_devices=5)
        lp = agent.device_log_probs(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
        assert np.exp(lp.data[:3]).sum() == pytest.approx(1.0)
        assert (lp.data[3:] < -100).all()
        for _ in range(10):
            device, _ = agent.choose_device(diamond_problem, [0, 0, 0, 2], 0, np.zeros(4, bool))
            assert device < 3

    def test_constraint_mask(self, diamond_problem):
        agent = PlacetoAgent(rng(10), num_devices=3)
        for _ in range(10):
            device, _ = agent.choose_device(
                diamond_problem, [0, 0, 0, 2], 3, np.zeros(4, bool)
            )
            assert device == 2  # task 3 only feasible on device 2

    def test_search_visits_each_node_once_per_pass(self, diamond_problem):
        agent = PlacetoAgent(rng(11), num_devices=3)
        trace = agent.search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(12))
        # 8 steps = two full traversals of the 4-node graph.
        assert trace.num_steps == 8

    def test_trainer_runs(self, diamond_problem):
        agent = PlacetoAgent(rng(13), num_devices=3)
        trainer = ReinforceTrainer(agent, OBJ)
        stats = trainer.train([diamond_problem], rng(14), episodes=2)
        assert len(stats) == 2


class TestRnnPlacer:
    def test_operator_embedding_dims(self, diamond_problem):
        feats = operator_embeddings(diamond_problem)
        g = diamond_problem.graph
        n_types = max(g.requirements) + 1
        max_out = max(len(g.children[i]) for i in range(4))
        assert feats.shape == (4, n_types + 1 + max_out + 4)

    def test_sampled_placement_feasible(self, diamond_problem):
        placer = RnnPlacer(diamond_problem, rng(15))
        placement, log_prob = placer.sample_placement()
        diamond_problem.validate_placement(placement)
        assert np.isfinite(log_prob.data)

    def test_fit_improves_or_holds(self, diamond_problem):
        placer = RnnPlacer(diamond_problem, rng(16))
        result = placer.fit(OBJ)
        assert result.best_value <= result.values_per_update[0] + 1e-9
        diamond_problem.validate_placement(result.best_placement)


class TestGiPHSearchPolicyAdapter:
    def test_adapter_runs(self, diamond_problem):
        agent = GiPHAgent(rng(18), embedding="giph")
        policy = GiPHSearchPolicy(agent)
        trace = policy.search(diamond_problem, OBJ, [0, 0, 0, 2], 4, rng(19))
        assert trace.num_steps == 4
        assert policy.name == "giph"


class TestTaskEftEpisodeLength:
    """An explicit ``episode_length`` below 1 is an error, not a request
    for the 2·|V| default (as ``PlacementEnv`` treats it)."""

    @pytest.mark.parametrize("bad", [0, -1])
    def test_below_one_rejected_before_anything_runs(self, bad):
        # Where it is written: no trainer, stream or evaluator exists yet.
        with pytest.raises(ValueError, match="episode_length must be >= 1"):
            ReinforceConfig(episode_length=bad)

    def test_none_runs_the_default(self, diamond_problem, monkeypatch):
        agent = TaskEftAgent(rng(22))
        steps = []
        select = agent.select_task
        monkeypatch.setattr(
            agent, "select_task", lambda *a, **kw: steps.append(1) or select(*a, **kw)
        )
        ReinforceTrainer(agent, OBJ).run_episode(diamond_problem, rng(23))
        assert len(steps) == 2 * diamond_problem.graph.num_tasks


def smaller_problem(problem):
    """``problem`` after device uid 1 left the cluster (the Fig. 6 case)."""
    return PlacementProblem(problem.graph, problem.network.without_device(1))


class TestCacheHandles:
    """``views=`` / ``layout=`` carry per-problem state into a call: they
    are optional, checked against the call's problem, never change a
    returned value, and nothing of them stays on the policy."""

    def test_select_task_same_with_and_without_views(self, diamond_problem):
        with_handle, without = TaskEftAgent(rng(30)), TaskEftAgent(rng(30))
        views = TaskViewBuilder(diamond_problem)
        for last in (None, 1, 2):
            task_a, lp_a = with_handle.select_task(diamond_problem, [0, 1, 0, 2], last, views=views)
            task_b, lp_b = without.select_task(diamond_problem, [0, 1, 0, 2], last)
            assert task_a == task_b and lp_a.data == lp_b.data
        assert with_handle.rng.bit_generator.state == without.rng.bit_generator.state

    def test_placeto_same_with_and_without_layout(self, diamond_problem):
        with_handle, without = PlacetoAgent(rng(31), 3), PlacetoAgent(rng(31), 3)
        layout = PlacetoLayout(diamond_problem)
        placed = np.array([True, False, True, False])
        args = (diamond_problem, [0, 1, 0, 2], 1, placed)
        lp_a = with_handle.device_log_probs(*args, layout=layout)
        assert (lp_a.data == without.device_log_probs(*args).data).all()
        for _ in range(5):
            dev_a, lp_a = with_handle.choose_device(*args, layout=layout)
            dev_b, lp_b = without.choose_device(*args)
            assert dev_a == dev_b and lp_a.data == lp_b.data
        assert with_handle.rng.bit_generator.state == without.rng.bit_generator.state

    def test_handle_bound_to_another_problem_rejected(self, diamond_problem):
        other = smaller_problem(diamond_problem)
        task_agent, placeto = TaskEftAgent(rng(32)), PlacetoAgent(rng(33), 3)
        placed = np.zeros(4, dtype=bool)
        states = [a.rng.bit_generator.state for a in (task_agent, placeto)]
        with pytest.raises(ValueError, match="TaskViewBuilder is bound to another problem"):
            task_agent.select_task(other, [0, 0, 0, 1], None, views=TaskViewBuilder(diamond_problem))
        for call in (placeto.device_log_probs, placeto.choose_device):
            with pytest.raises(ValueError, match="PlacetoLayout is bound to another problem"):
                call(other, [0, 0, 0, 1], 0, placed, layout=PlacetoLayout(diamond_problem))
        # Raised before anything was computed or drawn.
        assert states == [a.rng.bit_generator.state for a in (task_agent, placeto)]

    def test_search_after_a_device_left_uses_the_new_problem(self, diamond_problem):
        # Nothing of the first search's problem (its max(m - 1, 1), its
        # feasible sets, its edge arrays) may leak into the second.
        other = smaller_problem(diamond_problem)
        assert other.network.num_devices == 2
        for make in (lambda: PlacetoAgent(rng(34), 3), lambda: TaskEftAgent(rng(34))):
            used, fresh = make(), make()
            used.search(diamond_problem, OBJ, [0, 0, 0, 2], 8, rng(35))
            trace = used.search(other, OBJ, [0, 0, 0, 1], 8, rng(36))
            assert trace == fresh.search(other, OBJ, [0, 0, 0, 1], 8, rng(36))
            other.validate_placement(trace.best_placement)

    def test_policies_keep_no_per_problem_state(self, diamond_problem):
        # Policies are pickled into every fan-out payload: what one
        # searched or trained on last must not ride along.
        for make in (lambda: PlacetoAgent(rng(37), 3), lambda: TaskEftAgent(rng(37))):
            used, never_used = make(), make()
            used.search(diamond_problem, OBJ, [0, 0, 0, 2], 6, rng(38))
            ReinforceTrainer(used, OBJ).run_episode(diamond_problem, rng(39))
            assert vars(used).keys() == vars(never_used).keys()
            assert not any(
                isinstance(v, (PlacementProblem, TaskViewBuilder, PlacetoLayout))
                for v in vars(used).values()
            )
