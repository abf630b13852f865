"""Trainer per-problem caches: evaluator and agent handle evict in lockstep.

The trainer keeps two sibling caches keyed by problem instance — the
EvaluatorPool's evaluators and its agent's per-problem handles (gpNet
builders for GiPH, task views for task-EFT, layouts for Placeto).  They used to age
out on independent access patterns, so a long problem sweep could pin a
cache-laden builder after its evaluator was gone (or vice versa).  Now
the pool's LRU drives both through its eviction hook.
"""

import numpy as np

from repro.core import GiPHAgent, PlacementProblem, ReinforceConfig, ReinforceTrainer
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.runtime.evaluator import EvaluatorPool
from repro.sim import MakespanObjective


def make_problems(count, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        graph = generate_task_graph(TaskGraphParams(num_tasks=5), rng)
        network = generate_device_network(DeviceNetworkParams(num_devices=3), rng)
        out.append(PlacementProblem(graph, network))
    return out


def make_trainer(max_cached_problems):
    agent = GiPHAgent(np.random.default_rng(0))
    return ReinforceTrainer(
        agent,
        MakespanObjective(),
        ReinforceConfig(episodes=1),
        max_cached_problems=max_cached_problems,
    )


def paired_ids(trainer):
    evaluator_ids = set(trainer._evaluators._by_problem)
    builder_ids = set(trainer._handles)
    return evaluator_ids, builder_ids


class TestLockstepEviction:
    def test_sweep_keeps_pairs_in_lockstep(self):
        trainer = make_trainer(max_cached_problems=2)
        for problem in make_problems(5):
            trainer._evaluators.get(problem)
            trainer._handle_for(problem)
            evaluator_ids, builder_ids = paired_ids(trainer)
            assert evaluator_ids == builder_ids
            assert len(evaluator_ids) <= 2

    def test_builder_access_refreshes_the_pair(self):
        trainer = make_trainer(max_cached_problems=2)
        first, second, third = make_problems(3)
        trainer._handle_for(first)
        trainer._handle_for(second)
        # Touching only the builder must refresh the evaluator's LRU slot
        # too, otherwise the pair would split on the next eviction.
        trainer._handle_for(first)
        trainer._handle_for(third)  # evicts `second`, not `first`
        evaluator_ids, builder_ids = paired_ids(trainer)
        assert evaluator_ids == builder_ids == {id(first), id(third)}

    def test_evaluator_only_access_drops_stale_builder(self):
        trainer = make_trainer(max_cached_problems=2)
        first, second, third = make_problems(3)
        trainer._handle_for(first)
        trainer._handle_for(second)
        trainer._evaluators.get(third)  # evicts `first`'s evaluator...
        assert id(first) not in trainer._handles  # ...and its builder
        evaluator_ids, builder_ids = paired_ids(trainer)
        assert builder_ids <= evaluator_ids

    def test_training_across_many_problems_stays_bounded(self):
        trainer = make_trainer(max_cached_problems=3)
        problems = make_problems(6)
        trainer.train(problems, np.random.default_rng(1), episodes=8)
        evaluator_ids, builder_ids = paired_ids(trainer)
        assert evaluator_ids == builder_ids
        assert len(evaluator_ids) <= 3


class TestEvaluatorPoolEvictionHook:
    def test_hook_receives_evicted_pair(self):
        problems = make_problems(3)
        evicted = []
        pool = EvaluatorPool(
            MakespanObjective(),
            max_problems=2,
            on_evict=lambda pid, ev: evicted.append((pid, ev)),
        )
        held = [pool.get(p) for p in problems]
        assert [pid for pid, _ in evicted] == [id(problems[0])]
        assert evicted[0][1] is held[0]
