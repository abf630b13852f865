"""Property tests: the vectorized GNN hot path is bit-identical to the loop.

The contract of the PR-6 vectorization (frontier-batched message
passing, split-h1 edge hoisting, fused REINFORCE accumulation) is that
it changes *nothing* about the floats an experiment produces — only how
fast they appear.  These tests pin that contract:

* embeddings from the vectorized sweep equal the per-task loop oracle
  (``gnn_reference.py``) byte for byte (``np.array_equal``, no
  tolerance) across random problems, placements, both aggregations and
  the two embedding kinds that sweep (GiPH, GiPH-NE);
* parameter gradients agree to tight tolerance (backward accumulation
  order differs between the paths, so bitwise equality is not expected
  there);
* the per-problem structural caches are computed once and shared;
* the fused ``episode_loss`` delivers the same gradient as the
  per-step Python sum it replaced;
* an end-to-end search trace is identical in both modes.
"""

import numpy as np
import pytest
from gnn_reference import reference_path, two_way_reference
from test_gpnet import random_layout_problem

from repro.core import PlacementProblem, gnn, random_placement
from repro.core.agent import GiPHAgent
from repro.core.features import GpNetBuilder, GpNetStructure, structure_of
from repro.core.gnn import gnn_stats, make_embedding
from repro.core.reinforce import (
    ReinforceConfig,
    average_reward_baseline,
    discounted_returns,
    episode_loss,
)
from repro.core.search import run_search
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.nn import Tensor
from repro.sim.objectives import MakespanObjective

# The kinds whose forward is the two-way sweep the loop oracle replaces
# (GiPH-k and GraphSAGE-NE never had a per-task loop).
KINDS = ("giph", "giph-ne")


def make_problem(seed: int, num_tasks: int = 8, num_devices: int = 4) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.3), rng)
    network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    return PlacementProblem(graph, network)


def grads_of(module) -> dict[str, np.ndarray | None]:
    return {
        name: None if p.grad is None else p.grad.copy()
        for name, p in module.named_parameters()
    }


class TestBitIdentical:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("trial", range(6))
    def test_vectorized_equals_reference_bitwise(self, kind, trial):
        problem = make_problem(40 + trial, num_tasks=4 + trial, num_devices=3 + trial % 3)
        builder = GpNetBuilder(problem)
        emb = make_embedding(kind, np.random.default_rng([1, trial]))
        for pseed in range(3):
            placement = random_placement(problem, np.random.default_rng([trial, pseed]))
            net = builder.build(placement)
            out_vec = emb(net)
            with reference_path():
                out_ref = emb(net)
            assert np.array_equal(out_vec.data, out_ref.data), (
                f"kind={kind} trial={trial} pseed={pseed}: max diff "
                f"{np.max(np.abs(out_vec.data - out_ref.data))}"
            )

    @pytest.mark.parametrize("kind", KINDS)
    def test_sum_aggregation_bitwise(self, kind):
        """``aggregation="sum"`` is what ``experiments/ablation.py`` trains with."""
        problem = make_problem(50, num_tasks=9, num_devices=4)
        builder = GpNetBuilder(problem)
        emb = make_embedding(kind, np.random.default_rng(5), aggregation="sum")
        for pseed in range(3):
            net = builder.build(random_placement(problem, np.random.default_rng(pseed)))
            out_vec = emb(net)
            with reference_path():
                out_ref = emb(net)
            assert np.array_equal(out_vec.data, out_ref.data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "num_tasks, edge_prob", [(1, 1.0), (5, 0.0)], ids=["single-task", "edgeless"]
    )
    def test_degenerate_graphs_bitwise(self, kind, num_tasks, edge_prob):
        problem = random_layout_problem(3, num_tasks, 3, edge_prob)
        net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
        assert net.num_edges == 0
        emb = make_embedding(kind, np.random.default_rng(6))
        embed_dim = emb.forward_pass.embed_dim
        x = Tensor(np.random.default_rng(7).normal(size=(net.num_nodes, embed_dim)))
        shipped = gnn._two_way(emb.forward_pass, emb.backward_pass, net, x)
        oracle = two_way_reference(emb.forward_pass, emb.backward_pass, net, x)
        assert shipped.shape == (net.num_nodes, emb.out_dim)
        assert np.array_equal(shipped.data, oracle.data)

    def test_reference_path_restores_on_error(self):
        shipped = gnn._two_way
        with pytest.raises(RuntimeError, match="boom"):
            with reference_path():
                assert gnn._two_way is two_way_reference
                raise RuntimeError("boom")
        assert gnn._two_way is shipped

    @pytest.mark.parametrize("kind", KINDS)
    def test_gradients_agree(self, kind):
        problem = make_problem(7, num_tasks=7, num_devices=4)
        builder = GpNetBuilder(problem)
        net = builder.build(random_placement(problem, np.random.default_rng(0)))
        emb = make_embedding(kind, np.random.default_rng(2))

        ((emb(net) * emb(net)).sum()).backward()
        vec_grads = grads_of(emb)
        emb.zero_grad()
        with reference_path():
            ((emb(net) * emb(net)).sum()).backward()
        ref_grads = grads_of(emb)

        assert vec_grads.keys() == ref_grads.keys()
        for name, vg in vec_grads.items():
            rg = ref_grads[name]
            assert (vg is None) == (rg is None), name
            if vg is not None:
                np.testing.assert_allclose(vg, rg, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_no_grad_inference_matches_training_forward(self):
        from repro.nn import no_grad

        problem = make_problem(9, num_tasks=6)
        net = GpNetBuilder(problem).build(
            random_placement(problem, np.random.default_rng(1))
        )
        emb = make_embedding("giph", np.random.default_rng(3))
        with_grad = emb(net).data
        with no_grad():
            without = emb(net).data
        assert np.array_equal(with_grad, without)


class TestStructureCache:
    def test_builder_attaches_one_shared_structure(self):
        problem = make_problem(11, num_tasks=6)
        builder = GpNetBuilder(problem)
        nets = [
            builder.build(random_placement(problem, np.random.default_rng(s)))
            for s in range(3)
        ]
        structures = {id(structure_of(net)) for net in nets}
        assert len(structures) == 1

    def test_structure_of_is_lazy_and_stable(self):
        problem = make_problem(12, num_tasks=5)
        placement = random_placement(problem, np.random.default_rng(0))
        net = GpNetBuilder(problem).build(placement)
        # Simulate a net that arrived without the builder's shared
        # instance (e.g. built directly in a test).
        object.__setattr__(net, "_structure", None)
        first = structure_of(net)
        assert structure_of(net) is first
        assert isinstance(first, GpNetStructure)

    def test_plans_are_placement_independent_but_not_endpoints(self):
        """The cached plans carry only layout facts; edge endpoints move
        with the pivots and are resolved per forward."""
        problem = make_problem(13, num_tasks=6)
        builder = GpNetBuilder(problem)
        a = builder.build(random_placement(problem, np.random.default_rng(0)))
        b = builder.build(random_placement(problem, np.random.default_rng(1)))
        sa, sb = structure_of(a), structure_of(b)
        assert sa is sb
        for plan in (sa.forward_plan, sa.backward_plan):
            total_nodes = sum(len(level.nodes) for level in plan.levels)
            assert total_nodes == a.num_nodes == b.num_nodes

    def test_forward_counter_advances(self):
        problem = make_problem(14, num_tasks=5)
        net = GpNetBuilder(problem).build(
            random_placement(problem, np.random.default_rng(0))
        )
        emb = make_embedding("giph", np.random.default_rng(4))
        before = gnn_stats()
        emb(net)
        after = gnn_stats()
        delta = after.delta(before)
        assert delta.forwards == 1
        assert delta.seconds >= 0.0


class TestFusedEpisodeLoss:
    def test_matches_per_step_python_sum(self):
        """The fused stack-multiply-sum delivers each log-prob exactly
        ``-advantage_t`` — the same gradient as the per-step loop."""
        rng = np.random.default_rng(5)
        config = ReinforceConfig(episodes=1)
        rewards = list(rng.normal(size=12))
        logits = rng.normal(size=12)

        fused_inputs = [Tensor(np.asarray(v), requires_grad=True) for v in logits]
        episode_loss(fused_inputs, rewards, config).backward()

        loop_inputs = [Tensor(np.asarray(v), requires_grad=True) for v in logits]
        returns = discounted_returns(rewards, config.gamma)
        baseline = average_reward_baseline(rewards)
        loss = Tensor(np.zeros(()))
        for t, lp in enumerate(loop_inputs):
            advantage = (config.gamma**t) * (returns[t] - baseline[t])
            loss = loss + lp * (-advantage)
        loss.backward()

        for fused, looped in zip(fused_inputs, loop_inputs):
            np.testing.assert_array_equal(fused.grad, looped.grad)

    def test_empty_episode(self):
        loss = episode_loss([], [], ReinforceConfig(episodes=1))
        assert loss.data.shape == ()
        assert loss.data == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            episode_loss([Tensor(np.zeros(()))], [], ReinforceConfig(episodes=1))


class TestEndToEnd:
    def test_search_trace_identical_both_modes(self):
        problem = make_problem(15, num_tasks=8, num_devices=4)
        objective = MakespanObjective()
        initial = random_placement(problem, np.random.default_rng(2))

        def episode(use_reference: bool):
            agent = GiPHAgent(np.random.default_rng(6))
            agent.rng = np.random.default_rng(8)
            if use_reference:
                with reference_path():
                    return run_search(
                        agent=agent, problem=problem, objective=objective,
                        initial_placement=initial, episode_length=16,
                    )
            return run_search(
                agent=agent, problem=problem, objective=objective,
                initial_placement=initial, episode_length=16,
            )

        vec, ref = episode(False), episode(True)
        assert vec.best_placement == ref.best_placement
        assert np.array_equal(np.asarray(vec.values), np.asarray(ref.values))

    def test_training_trajectory_identical_both_modes(self):
        from repro.core.reinforce import ReinforceTrainer

        problem = make_problem(16, num_tasks=6, num_devices=4)

        def train(use_reference: bool):
            agent = GiPHAgent(np.random.default_rng(7))
            trainer = ReinforceTrainer(
                agent, MakespanObjective(), ReinforceConfig(episodes=3)
            )
            rng = np.random.default_rng(9)
            if use_reference:
                with reference_path():
                    trainer.train([problem], rng, episodes=3)
            else:
                trainer.train([problem], rng, episodes=3)
            return [s.best_value for s in trainer.history]

        assert train(False) == train(True)
