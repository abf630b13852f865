"""Cross-module integration tests.

These exercise the seams the unit suites cannot: policies trained in one
domain applied in another, checkpoints crossing process boundaries,
placements surviving cluster churn, and the agreement between HEFT's
internal schedule estimate and the runtime simulator.
"""

import numpy as np
import pytest

from repro.baselines import heft_placement
from repro.casestudy import TraceConfig, TrafficConfig, extract_trace
from repro.core import (
    GiPHAgent,
    PlacementProblem,
    ReinforceConfig,
    ReinforceTrainer,
    random_placement,
    run_search,
)
from repro.core.serialization import load_agent, save_agent
from repro.devices import ChurnConfig, DeviceNetworkParams, generate_device_network, network_churn
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.sim import MakespanObjective, cp_min_lower_bound, simulate


def synthetic_problem(rng, num_tasks=8, num_devices=4):
    graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks), rng)
    network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    return PlacementProblem(graph, network)


class TestCrossDomainGeneralization:
    def test_synthetic_trained_agent_runs_on_case_study(self):
        """A policy trained on random synthetic problems must *execute*
        on a sensor-fusion scenario (different graph family, device
        count, constraint structure) without shape errors — the
        structural guarantee behind the paper's generalization claims."""
        rng = np.random.default_rng(0)
        agent = GiPHAgent(rng)
        trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episode_length=4))
        trainer.train([synthetic_problem(rng) for _ in range(2)], rng, episodes=2)

        scenarios = extract_trace(
            TraceConfig(
                traffic=TrafficConfig(num_vehicles=250, duration_s=80.0, cav_fraction=0.4),
                max_cases=1,
            ),
            rng,
        )
        problem = scenarios[0].problem
        trace = run_search(
            agent, problem, MakespanObjective(), random_placement(problem, rng),
            episode_length=6,
        )
        problem.validate_placement(trace.best_placement)
        assert trace.best_value <= trace.values[0] + 1e-9

    def test_one_agent_many_device_counts(self):
        """The same agent evaluates on 2-, 5- and 9-device clusters."""
        rng = np.random.default_rng(1)
        agent = GiPHAgent(rng)
        for m in (2, 5, 9):
            problem = synthetic_problem(rng, num_tasks=6, num_devices=m)
            trace = run_search(
                agent, problem, MakespanObjective(), random_placement(problem, rng),
                episode_length=4,
            )
            problem.validate_placement(trace.best_placement)


class TestCheckpointWorkflow:
    def test_train_save_load_evaluate(self, tmp_path):
        rng = np.random.default_rng(2)
        problem = synthetic_problem(rng)
        agent = GiPHAgent(rng)
        ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episode_length=4)).train(
            [problem], rng, episodes=2
        )
        path = save_agent(agent, tmp_path / "ckpt.npz")
        loaded = load_agent(path, np.random.default_rng(3))

        initial = random_placement(problem, rng)
        agent.rng, loaded.rng = np.random.default_rng(5), np.random.default_rng(5)
        t1 = run_search(agent, problem, MakespanObjective(), initial)
        t2 = run_search(loaded, problem, MakespanObjective(), initial)
        assert t1 == t2


class TestChurnWorkflow:
    def test_replacement_after_churn(self):
        """After devices leave, a stale placement may reference gone
        devices; re-placing on the new network must restore validity."""
        rng = np.random.default_rng(4)
        network = generate_device_network(
            DeviceNetworkParams(num_devices=6, support_prob=0.8), rng
        )
        graph = generate_task_graph(TaskGraphParams(num_tasks=8), rng)
        agent = GiPHAgent(rng)
        for event in network_churn(
            network, ChurnConfig(min_devices=4, max_devices=6, num_changes=4), rng
        ):
            problem = PlacementProblem(graph, event.network)
            trace = run_search(
                agent, problem, MakespanObjective(), random_placement(problem, rng),
                episode_length=4,
            )
            problem.validate_placement(trace.best_placement)
            # The placement must be executable on the changed cluster.
            res = simulate(graph, event.network, trace.best_placement, problem.cost_model)
            assert res.makespan > 0


class TestHeftSimulatorAgreement:
    def test_internal_estimate_close_to_simulation(self):
        """HEFT's insertion-based estimate and the FIFO simulator use
        different queue disciplines but must agree within a small factor
        on random instances."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            problem = synthetic_problem(rng, num_tasks=10, num_devices=4)
            schedule = heft_placement(problem)
            sim = simulate(
                problem.graph, problem.network, schedule.placement, problem.cost_model
            )
            assert sim.makespan >= 0.5 * schedule.makespan
            assert sim.makespan <= 3.0 * schedule.makespan + 1e-9


class TestDeterminism:
    def test_training_deterministic_given_seed(self):
        def run():
            rng = np.random.default_rng(5)
            problem = synthetic_problem(rng)
            agent = GiPHAgent(rng)
            trainer = ReinforceTrainer(
                agent, MakespanObjective(), ReinforceConfig(episode_length=4)
            )
            trainer.train([problem], rng, episodes=2)
            return agent.state_dict()

        s1, s2 = run(), run()
        for key in s1:
            np.testing.assert_allclose(s1[key], s2[key], err_msg=key)

    def test_slr_lower_bound_holds_across_policies(self):
        """SLR >= 1 for any feasible placement of any instance: the
        CP_MIN bound is a true lower bound of simulated makespan."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            problem = synthetic_problem(rng, num_tasks=9, num_devices=4)
            bound = cp_min_lower_bound(problem.cost_model)
            for _ in range(3):
                placement = random_placement(problem, rng)
                res = simulate(problem.graph, problem.network, placement, problem.cost_model)
                assert res.makespan >= bound - 1e-9
