"""Cross-cutting property-based tests on core invariants.

These complement the per-module suites with randomized checks of the
mathematical properties the reproduction's correctness rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import eft_estimates, heft_placement, upward_ranks
from repro.core import PlacementProblem, random_placement
from repro.core.reinforce import average_reward_baseline, discounted_returns
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.sim import MakespanObjective, TotalCostObjective, cp_min_lower_bound


def make_problem(seed: int, num_tasks: int = 8, num_devices: int = 4) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.3), rng)
    network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    return PlacementProblem(graph, network)


class TestReinforceMath:
    @settings(max_examples=50, deadline=None)
    @given(
        rewards=st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        gamma=st.floats(0.0, 1.0),
    )
    def test_returns_recurrence(self, rewards, gamma):
        """G_t = r_t + γ·G_{t+1} for all t."""
        returns = discounted_returns(rewards, gamma)
        for t in range(len(rewards) - 1):
            assert returns[t] == pytest.approx(rewards[t] + gamma * returns[t + 1], abs=1e-6)
        assert returns[-1] == pytest.approx(rewards[-1])

    @settings(max_examples=50, deadline=None)
    @given(rewards=st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    def test_baseline_is_prefix_mean(self, rewards):
        baseline = average_reward_baseline(rewards)
        assert baseline[0] == 0.0
        for t in range(1, len(rewards)):
            assert baseline[t] == pytest.approx(np.mean(rewards[:t]), abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(rewards=st.lists(st.floats(-10, 10), min_size=2, max_size=20))
    def test_baseline_independent_of_future(self, rewards):
        """b_t must not depend on rewards at t or later (else the policy
        gradient becomes biased)."""
        baseline = average_reward_baseline(rewards)
        perturbed = list(rewards)
        perturbed[-1] += 123.0
        baseline2 = average_reward_baseline(perturbed)
        np.testing.assert_allclose(baseline[:-1], baseline2[:-1])


class TestHeftProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), num_tasks=st.integers(3, 15), num_devices=st.integers(2, 6))
    def test_heft_placement_feasible_and_ranks_topological(self, seed, num_tasks, num_devices):
        problem = make_problem(seed, num_tasks, num_devices)
        schedule = heft_placement(problem)
        problem.validate_placement(schedule.placement)
        ranks = upward_ranks(problem)
        for (u, v) in problem.graph.edges:
            assert ranks[u] > ranks[v] - 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_heft_internal_schedule_respects_precedence(self, seed):
        problem = make_problem(seed, num_tasks=10)
        s = heft_placement(problem)
        cm = problem.cost_model
        for (u, v) in problem.graph.edges:
            comm = cm.comm_time((u, v), s.placement[u], s.placement[v])
            assert s.start[v] >= s.finish[u] + comm - 1e-9


class TestEftProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), task_seed=st.integers(0, 100))
    def test_eft_estimate_at_least_compute_time(self, seed, task_seed):
        problem = make_problem(seed)
        rng = np.random.default_rng(task_seed)
        placement = random_placement(problem, rng)
        task = int(rng.integers(0, problem.graph.num_tasks))
        for d, est in eft_estimates(problem, placement, task).items():
            assert est >= problem.cost_model.compute_time(task, d) - 1e-9


class TestObjectiveProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), placement_seed=st.integers(0, 100))
    def test_makespan_at_least_cp_bound(self, seed, placement_seed):
        problem = make_problem(seed)
        placement = random_placement(problem, np.random.default_rng(placement_seed))
        makespan = MakespanObjective().evaluate(problem.cost_model, placement)
        assert makespan >= cp_min_lower_bound(problem.cost_model) - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), placement_seed=st.integers(0, 100))
    def test_total_cost_at_least_sum_of_min_computes(self, seed, placement_seed):
        problem = make_problem(seed)
        placement = random_placement(problem, np.random.default_rng(placement_seed))
        cost = TotalCostObjective().evaluate(problem.cost_model, placement)
        cm = problem.cost_model
        floor = sum(min(cm.W[i, list(feasible)]) for i, feasible in enumerate(cm.feasible_sets))
        assert cost >= floor - 1e-9

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_colocated_placement_has_zero_comm_cost(self, seed):
        problem = make_problem(seed)
        cm = problem.cost_model
        # Find a device feasible for all tasks, if any.
        common = set(range(problem.network.num_devices))
        for feas in problem.feasible_sets:
            common &= set(feas)
        if not common:
            return
        d = min(common)
        placement = [d] * problem.graph.num_tasks
        expected = sum(cm.compute_time(i, d) for i in range(problem.graph.num_tasks))
        assert TotalCostObjective().evaluate(cm, placement) == pytest.approx(expected)


class TestGpNetMaskProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), placement_seed=st.integers(0, 100))
    def test_actions_and_masks_consistent(self, seed, placement_seed):
        from repro.core import PlacementEnv

        problem = make_problem(seed)
        env = PlacementEnv(problem, MakespanObjective())
        state = env.reset(rng=np.random.default_rng(placement_seed))
        mask = env.action_mask()
        # Exactly |A| - |V| actions survive the no-op mask on reset
        # (each task contributes one pivot).
        assert mask.sum() == problem.num_actions - problem.graph.num_tasks
        # Taking any allowed action yields a feasible placement.
        action = int(np.flatnonzero(mask)[0])
        next_state, _, _ = env.step(action)
        problem.validate_placement(next_state.placement)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_noise_free_objective_deterministic_across_rebuilds(self, seed):
        problem = make_problem(seed)
        placement = random_placement(problem, np.random.default_rng(0))
        v1 = MakespanObjective().evaluate(problem.cost_model, placement)
        v2 = MakespanObjective().evaluate(problem.cost_model, placement)
        assert v1 == v2
