"""Property tests: the vectorized GNN hot path is bit-identical to the loop.

The contract of the PR-6 vectorization (frontier-batched message
passing, split-h1 edge hoisting, fused REINFORCE accumulation) is that
it changes *nothing* about the floats an experiment produces — only how
fast they appear.  These tests pin that contract:

* embeddings from the vectorized sweep equal the per-task loop oracle
  (``gnn_reference.py``) byte for byte (``np.array_equal``, no
  tolerance) across random problems, placements, both aggregations and
  the two embedding kinds that sweep (GiPH, GiPH-NE);
* parameter gradients agree with the loop to tight tolerance (backward
  accumulation order differs between those two paths, so bitwise
  equality is not expected there);
* the shipped sweep — one lock-step tape node for both directions with
  a hand-written backward — gives **bit-identical** outputs, gradients
  and trained weights to the composed per-level tape it replaced
  (``gnn_reference.two_way_composed``): the backward runs the same float
  operations in the same order, and saves nothing when no backward can
  happen;
* the per-problem structural caches are computed once and shared;
* the fused ``episode_loss`` delivers the same gradient as the
  per-step Python sum it replaced;
* an end-to-end search trace is identical in both modes.
"""

import dataclasses
import functools

import numpy as np
import pytest
from gnn_reference import (
    composed_path,
    level_bounds,
    reference_path,
    two_way_composed,
    two_way_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_gpnet import random_layout_problem

from repro.core import PlacementProblem, gnn, random_placement
from repro.core.agent import GiPHAgent
from repro.core.features import GpNetBuilder, GpNetStructure, structure_of
from repro.core.gnn import EMBED_DIM, TwoWayMessagePassing, make_embedding
from repro.core.reinforce import (
    GAMMA,
    ReinforceConfig,
    ReinforceTrainer,
    average_reward_baseline,
    discounted_returns,
    episode_loss,
)
from repro.core.search import run_search
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.nn import Tensor, no_grad
from repro.sim.objectives import MakespanObjective
from repro.telemetry import metrics

# The kinds whose forward is the two-way sweep the loop oracle replaces
# (GiPH-k and GraphSAGE-NE never had a per-task loop).
KINDS = ("giph", "giph-ne")
# The (kind, aggregation) pairs those sweeps run with: only GiPH may sum
# (the design-choice ablation trains it).
VARIANTS = (("giph", "mean"), ("giph", "sum"), ("giph-ne", "mean"))


def sweep_embedding(kind: str, rng: np.random.Generator, aggregation: str):
    """The ``kind`` embedding aggregating by ``aggregation``."""
    if aggregation == "mean":
        return make_embedding(kind, rng)
    return TwoWayMessagePassing(rng, aggregation=aggregation)


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


def zero_grads(module) -> None:
    for p in module.parameters():
        p.zero_grad()


def gnn_counter(name: str) -> float:
    """Current value of the registry's ``gnn.<name>`` counter."""
    return metrics().counter(f"gnn.{name}").value


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

    def test_sum_aggregation_bitwise(self):
        """``aggregation="sum"`` is what ``experiments/ablation.py`` trains with."""
        problem = make_problem(50, num_tasks=9, num_devices=4)
        builder = GpNetBuilder(problem)
        emb = TwoWayMessagePassing(np.random.default_rng(5), aggregation="sum")
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
        x = Tensor(np.random.default_rng(7).normal(size=(net.num_nodes, EMBED_DIM)))
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
        zero_grads(emb)
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


def assert_same_floats(a, b, what=""):
    """``None``-ness, values and the sign of every zero."""
    assert (a is None) == (b is None), what
    if a is not None:
        assert np.array_equal(a, b), what
        assert np.array_equal(np.signbit(a), np.signbit(b)), what


def two_nets(problem, seed):
    """A built net and a second one of the same problem reached by ``update``."""
    builder = GpNetBuilder(problem)
    rng = np.random.default_rng(seed)
    placement = list(random_placement(problem, rng))
    first = builder.build(placement)
    task = int(rng.integers(len(placement)))
    feasible = sorted(problem.feasible_sets[task])
    placement[task] = feasible[(feasible.index(placement[task]) + 1) % len(feasible)]
    return first, builder.update(first, placement, task)


def sweep_graph_floats(emb, nets, seed, freeze=(), x_grad=True):
    """Output, every parameter ``.grad`` and the leaf ``x.grad`` of one graph.

    Per net the graph holds the embedding called twice (``emb(net) *
    emb(net)`` — parameters shared between forwards) plus the two sweeps
    over a leaf ``x``; everything is summed against a random upstream
    gradient, so no gradient row is a constant.
    """
    rng = np.random.default_rng(seed)
    zero_grads(emb)
    for name, param in emb.named_parameters():
        param.requires_grad = name not in freeze
    try:
        xs, total = [], None
        for net in nets:
            x = Tensor(rng.normal(size=(net.num_nodes, EMBED_DIM)), requires_grad=x_grad)
            out = emb(net) * emb(net) + gnn._two_way(emb.forward_pass, emb.backward_pass, net, x)
            out = (out * Tensor(rng.normal(size=out.shape))).sum()
            total = out if total is None else total + out
            xs.append(x)
        if total.requires_grad:
            total.backward()
        return total.data, grads_of(emb), [x.grad for x in xs]
    finally:
        for _, param in emb.named_parameters():
            param.requires_grad = True


def assert_shipped_equals_composed(emb, nets, seed, **kwargs):
    out, grads, x_grads = sweep_graph_floats(emb, nets, seed, **kwargs)
    with composed_path():
        ref_out, ref_grads, ref_x_grads = sweep_graph_floats(emb, nets, seed, **kwargs)
    assert_same_floats(out, ref_out, "output")
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert_same_floats(grads[name], ref_grads[name], name)
    for got, want in zip(x_grads, ref_x_grads):
        assert_same_floats(got, want, "x.grad")
    return grads, x_grads


@functools.cache
def train_five_episodes(kind: str, composed: bool):
    """Weights, history, backward count and grad-mode embedding calls of one run."""
    problems = [make_problem(21, 6, 4), make_problem(22, 9, 3), make_problem(23, 4, 5)]
    agent = GiPHAgent(np.random.default_rng(7), embedding=kind)
    grad_calls = []
    embed = agent.embedding._embed

    def counting_embed(net):
        out = embed(net)
        grad_calls.append(out.requires_grad)
        return out

    agent.embedding._embed = counting_embed
    trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig(episodes=5))
    before = gnn_counter("backwards")
    if composed:
        with composed_path():
            trainer.train(problems, np.random.default_rng(9), episodes=5)
    else:
        trainer.train(problems, np.random.default_rng(9), episodes=5)
    backwards = gnn_counter("backwards") - before
    return agent.state_dict(), trainer.history, backwards, sum(grad_calls)


class TestFusedSweepGradients:
    """The hand-written backward against the composed per-level tape."""

    @pytest.mark.parametrize("kind, aggregation", VARIANTS)
    def test_outputs_and_gradients_bitwise(self, kind, aggregation):
        problem = make_problem(31, num_tasks=9, num_devices=4)
        emb = sweep_embedding(kind, np.random.default_rng(2), aggregation)
        grads, x_grads = assert_shipped_equals_composed(emb, two_nets(problem, 3), seed=4)
        assert all(g is not None and np.any(g) for g in grads.values())
        assert all(np.any(g) for g in x_grads)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        num_tasks=st.integers(1, 12),
        num_devices=st.integers(1, 5),
        edge_prob=st.sampled_from([0.0, 0.2, 0.6, 1.0]),
        variant=st.sampled_from(VARIANTS),
    )
    @example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0, variant=("giph", "mean"))
    @example(seed=1, num_tasks=5, num_devices=3, edge_prob=0.0, variant=("giph-ne", "mean"))
    def test_gradients_bitwise_on_generated_problems(
        self, seed, num_tasks, num_devices, edge_prob, variant
    ):
        problem = random_layout_problem(seed, num_tasks, num_devices, edge_prob)
        kind, aggregation = variant
        emb = sweep_embedding(kind, np.random.default_rng(seed), aggregation)
        assert_shipped_equals_composed(emb, two_nets(problem, seed + 1), seed=seed + 2)

    @pytest.mark.parametrize("kind, aggregation", VARIANTS)
    def test_search_large_shape_bitwise(self, kind, aggregation):
        """48 tasks x 12 devices, the ``search_large`` shape: with levels of
        a thousand edges a BLAS product handed a feature-major operand
        takes another kernel and misses the composed tape's floats —
        at 12 x 5 it can match by luck."""
        problem = make_problem(4812, num_tasks=48, num_devices=12)
        nets = two_nets(problem, 8)
        assert min(net.num_edges for net in nets) >= 5000
        emb = sweep_embedding(kind, np.random.default_rng(8), aggregation)
        grads, x_grads = assert_shipped_equals_composed(emb, nets, seed=9)
        assert all(g is not None and np.any(g) for g in grads.values())
        assert all(np.any(g) for g in x_grads)
        with no_grad():
            inference = emb(nets[0]).data
        with reference_path():
            assert np.array_equal(inference, emb(nets[0]).data)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "num_tasks, num_devices, edge_prob",
        [(1, 3, 1.0), (5, 3, 0.0), (6, 1, 0.6), (1, 1, 1.0)],
        ids=["single-task", "edgeless", "one-device", "one-node"],
    )
    def test_degenerate_shapes_and_output_layout(self, kind, num_tasks, num_devices, edge_prob):
        """Zero-width levels, zero edges and one-row buffers through the
        feature-major layout; and whatever the shape or grad mode, the
        sweep hands back a C-contiguous row-major ``(N, 2 * embed_dim)``
        array — the policy's BLAS ``nn.Linear`` reads it, and BLAS floats
        depend on operand layout."""
        problem = random_layout_problem(5, num_tasks, num_devices, edge_prob)
        nets = two_nets(problem, 6)
        emb = make_embedding(kind, np.random.default_rng(7))
        assert_shipped_equals_composed(emb, nets, seed=8)
        ordinary = make_problem(35, num_tasks=9, num_devices=4)
        for net in (*nets, *two_nets(ordinary, 1)):
            with no_grad():
                outputs = [emb(net)]
            outputs.append(emb(net))
            x = Tensor(np.ones((net.num_nodes, EMBED_DIM)), requires_grad=True)
            outputs.append(gnn._two_way(emb.forward_pass, emb.backward_pass, net, x))
            assert [out.requires_grad for out in outputs] == [False, True, True]
            for out in outputs:
                assert out.data.flags.c_contiguous and out.data.flags.owndata
                assert out.data.strides == (out.shape[1] * 8, 8)
            with reference_path():
                assert np.array_equal(outputs[0].data, emb(net).data)

    @pytest.mark.parametrize("kind", KINDS)
    def test_partial_requires_grad(self, kind):
        """Frozen parameters under a grad leaf ``x``, a constant ``x``
        under live parameters, and one live parameter alone: the same
        gradients as the composed tape, ``None`` where it leaves ``None``."""
        problem = make_problem(32, num_tasks=7, num_devices=4)
        emb = make_embedding(kind, np.random.default_rng(3))
        nets = two_nets(problem, 5)
        names = [name for name, _ in emb.named_parameters()]

        grads, x_grads = assert_shipped_equals_composed(emb, nets, 6, freeze=names)
        assert all(g is None for g in grads.values())
        assert all(g is not None for g in x_grads)

        grads, x_grads = assert_shipped_equals_composed(emb, nets, 6, x_grad=False)
        assert all(g is not None for g in grads.values())
        assert all(g is None for g in x_grads)

        for live in ("forward_pass.h1.weight", "backward_pass.h2.bias"):
            frozen = [name for name in names if name != live]
            grads, x_grads = assert_shipped_equals_composed(
                emb, nets, 6, freeze=frozen, x_grad=False
            )
            assert [name for name, g in grads.items() if g is not None] == [live]

    @pytest.mark.parametrize("kind", KINDS)
    def test_leaf_gradients_keep_the_composed_zero_signs(self, kind):
        """The composed tape sums ``x``'s gradient into zeros, so a ``-0.0``
        reads ``+0.0`` there (an upstream ``-0.0`` row of a node that sends
        nothing).  The sweep takes it once per pass and must keep those
        signs.  ``x`` sums both directions, so its zeros are the nodes of
        task 1, which has no edge: they send nothing either way.  The
        backward direction's upstream is all ``-0.0``, so its ``h1``
        gradients are zeros, which must read as the composed tape's."""
        problem = random_layout_problem(41, 8, 3, 0.3)
        assert all(1 not in edge for edge in problem.graph.edges)
        net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
        emb = make_embedding(kind, np.random.default_rng(6))
        layers = (emb.forward_pass, emb.backward_pass)
        rng = np.random.default_rng(7)
        x_data = rng.normal(size=(net.num_nodes, EMBED_DIM))
        upstream = rng.normal(size=(net.num_nodes, 2 * EMBED_DIM))
        upstream[::2] = -0.0
        upstream[net.options[1]] = -0.0
        upstream[:, EMBED_DIM:] = -0.0

        def leaf_grads(two_way):
            zero_grads(emb)
            x = Tensor(x_data, requires_grad=True)
            two_way(*layers, net, x).backward(upstream)
            return [x.grad] + [t.grad for layer in layers for t in (layer.h1.weight, layer.h1.bias)]

        got, want = leaf_grads(gnn._two_way), leaf_grads(two_way_composed)
        names = ("x", "h1.weight fwd", "h1.bias fwd", "h1.weight bwd", "h1.bias bwd")
        for name, g, w in zip(names, got, want):
            assert_same_floats(g, w, name)
        # The case is exercised: zeros, +0.0 only.
        for g in (want[0], want[3], want[4]):
            zeros = g[g == 0]
            assert len(zeros) and not np.signbit(zeros).any()

    @pytest.mark.parametrize("kind", KINDS)
    def test_nothing_saved_when_no_backward_can_happen(self, kind):
        problem = make_problem(33, num_tasks=6, num_devices=3)
        net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
        emb = make_embedding(kind, np.random.default_rng(4))
        passes = (emb.forward_pass, emb.backward_pass)
        data = np.random.default_rng(1).normal(size=(net.num_nodes, EMBED_DIM))

        tracked = gnn._two_way(*passes, net, Tensor(data))
        assert tracked._op == "two-way" and tracked._backward is not None
        assert len(tracked._parents) == 9  # one node for both directions

        with no_grad():
            inference = gnn._two_way(*passes, net, Tensor(data, requires_grad=True))
        for _, param in emb.named_parameters():
            param.requires_grad = False
        constant = gnn._two_way(*passes, net, Tensor(data))
        for out in (inference, constant):
            assert not out.requires_grad
            assert out._parents == () and out._backward is None
            assert np.array_equal(out.data, tracked.data)

    @pytest.mark.parametrize(
        "backward, bad_row",
        [
            pytest.param(False, "past-the-level", id="past-the-level"),
            pytest.param(False, "negative", id="negative"),
            pytest.param(True, "past-the-level", id="backward-past-the-level"),
            pytest.param(True, "negative", id="backward-negative"),
        ],
    )
    def test_corrupt_plan_raises_instead_of_writing_a_wrong_row(self, backward, bad_row):
        """The sweep calls the array-level segment kernel directly on both
        directions' rows of a level; an id one past either end of its own
        direction's rows must still be refused before the floats."""
        problem = make_problem(34, num_tasks=6, num_devices=3)
        net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
        structure = structure_of(net)
        n0, n1, e0, _, nf, ef = level_bounds(structure)[1]
        if backward:  # rows [n0 + nf, n1) of the level; edge ids shifted by E
            receiver = net.num_nodes + net.edge_src[structure.edges[e0 + ef] - net.num_edges]
            first, size = n0 + nf, n1 - n0 - nf
        else:  # rows [n0, n0 + nf)
            receiver, first, size = net.edge_dst[structure.edges[e0]], n0, nf
        node_row = structure.node_row.copy()
        node_row[receiver] = first + (size if bad_row == "past-the-level" else -1)
        object.__setattr__(
            net, "_structure", dataclasses.replace(structure, node_row=node_row)
        )
        emb = make_embedding("giph", np.random.default_rng(5))
        with pytest.raises(ValueError, match=r"segment_sum: segment ids span"):
            emb(net)

    @pytest.mark.parametrize("kind", KINDS)
    def test_training_weights_and_history_bitwise(self, kind):
        weights, history, _, _ = train_five_episodes(kind, composed=False)
        ref_weights, ref_history, _, _ = train_five_episodes(kind, composed=True)
        assert weights.keys() == ref_weights.keys()
        for name in weights:
            assert_same_floats(weights[name], ref_weights[name], name)
        assert len(history) == 5 and history == ref_history

    @pytest.mark.parametrize("kind", KINDS)
    def test_backward_counter_counts_grad_mode_embeddings(self, kind):
        """One ``gnn.backwards`` tick per grad-mode embedding call,
        however many tape nodes the sweep is."""
        _, _, backwards, grad_calls = train_five_episodes(kind, composed=False)
        _, _, ref_backwards, ref_grad_calls = train_five_episodes(kind, composed=True)
        assert backwards == grad_calls > 0
        assert (ref_backwards, ref_grad_calls) == (backwards, grad_calls)

    def test_composed_path_restores_on_error(self):
        shipped = gnn._two_way
        with pytest.raises(RuntimeError, match="boom"):
            with composed_path():
                assert gnn._two_way is two_way_composed
                raise RuntimeError("boom")
        assert gnn._two_way is shipped

    @pytest.mark.parametrize("kind", KINDS)
    def test_both_oracle_paths_are_live(self, kind):
        """Each oracle's swap reaches the embedding's forward: under it the
        output's tape ends in the oracle's ``concat``, outside it in the
        shipped two-way node — else every comparison would compare the
        shipped path with itself."""
        problem = make_problem(37, num_tasks=6, num_devices=3)
        net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
        emb = make_embedding(kind, np.random.default_rng(8))

        def last_op():
            (out,) = emb(net)._parents  # under the ``gnn-stats`` pass-through
            return out._op

        assert last_op() == "two-way"
        for path in (composed_path, reference_path):
            with path():
                assert last_op() == "concat"


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
        assert len(sa.nodes) == 2 * a.num_nodes == 2 * b.num_nodes

    def test_forward_counter_advances(self):
        problem = make_problem(14, num_tasks=5)
        net = GpNetBuilder(problem).build(
            random_placement(problem, np.random.default_rng(0))
        )
        emb = make_embedding("giph", np.random.default_rng(4))
        forwards, seconds = gnn_counter("forwards"), gnn_counter("seconds")
        emb(net)
        assert gnn_counter("forwards") - forwards == 1
        assert gnn_counter("seconds") >= seconds


class TestFusedEpisodeLoss:
    def test_matches_per_step_python_sum(self):
        """The fused stack-multiply-sum delivers each log-prob exactly
        ``-advantage_t`` — the same gradient as the per-step loop."""
        rng = np.random.default_rng(5)
        rewards = list(rng.normal(size=12))
        logits = rng.normal(size=12)

        fused_inputs = [Tensor(np.asarray(v), requires_grad=True) for v in logits]
        episode_loss(fused_inputs, rewards).backward()

        loop_inputs = [Tensor(np.asarray(v), requires_grad=True) for v in logits]
        returns = discounted_returns(rewards, GAMMA)
        baseline = average_reward_baseline(rewards)
        loss = Tensor(np.zeros(()))
        for t, lp in enumerate(loop_inputs):
            advantage = (GAMMA**t) * (returns[t] - baseline[t])
            loss = loss + lp * (-advantage)
        loss.backward()

        for fused, looped in zip(fused_inputs, loop_inputs):
            np.testing.assert_array_equal(fused.grad, looped.grad)

    def test_empty_episode(self):
        loss = episode_loss([], [])
        assert loss.data.shape == ()
        assert loss.data == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            episode_loss([Tensor(np.zeros(()))], [])


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
