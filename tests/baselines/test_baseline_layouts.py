"""The learned baselines' per-problem layouts and the k-step message pass
against what they replaced.

``reference.py`` keeps the per-step Python the shipped code replaced —
the row-loop task view, the row-loop Placeto features and the
``Tensor``-composed k-step message pass (Placeto's and GiPH-k's).
Everything here is bitwise (``tobytes()``): the shipped paths run the
same float operations in the same order, so trained weights are a fixed
point of the rewrite.
Gradient tests use >= 2 devices — with one device every log-probability
is constant, every gradient zero, and any backward bug hides.
"""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import (
    composed_path,
    data_out,
    loop_views,
    placeto_features_loop,
    placeto_summaries_composed,
    task_view_loop,
    two_way_composed,
)

from repro.baselines import placeto
from repro.baselines import (
    PlacetoAgent,
    PlacetoLayout,
    TaskEftAgent,
    TaskViewBuilder,
)
from repro.core import GiPHAgent, GpNetBuilder
from repro.core.features import GpNetStructure, structure_of
from repro.core.gnn import make_embedding
from repro.core.placement import PlacementProblem, random_placement
from repro.core.reinforce import ReinforceTrainer
from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph
from repro.nn import Linear, Tensor, no_grad
from repro.nn import functional as F
from repro.sim.executor import simulate
from repro.sim.objectives import MakespanObjective

OBJ = MakespanObjective()


def generated_problem(seed, num_tasks, num_devices, edge_prob):
    """A random DAG on a random network (hardware type 1 lives on device
    0 only).  Edges are inserted in shuffled order, so ``graph.edges``
    iteration order — the order ``data_out`` adds in — is not sorted."""
    rng = np.random.default_rng(seed)
    pairs = [
        (i, j)
        for i in range(num_tasks)
        for j in range(i + 1, num_tasks)
        if rng.random() < edge_prob
    ]
    rng.shuffle(pairs)
    graph = TaskGraph(
        compute=tuple(rng.uniform(1.0, 10.0, num_tasks)),
        edges={(int(i), int(j)): float(rng.uniform(1.0, 50.0)) for i, j in pairs},
        requirements=tuple(int(r) for r in rng.integers(0, 2, num_tasks)),
    )
    return PlacementProblem(graph, _network(rng, num_devices))


def _network(rng, num_devices):
    devices = [
        Device(uid=k, speed=float(rng.uniform(0.5, 4.0)), supports=frozenset({0, 1} if k == 0 else {0}))
        for k in range(num_devices)
    ]
    shape = (num_devices, num_devices)
    bandwidth = rng.uniform(1.0, 20.0, shape)
    delay = rng.uniform(0.0, 2.0, shape)
    np.fill_diagonal(bandwidth, np.inf)
    np.fill_diagonal(delay, 0.0)
    return DeviceNetwork(devices, bandwidth, delay)


def pinned_problem(name, num_devices=3):
    """The small shapes where a backward bug shows (or hides) first."""
    compute, edges = {
        "one-task": ((3.0,), {}),
        "edgeless": ((3.0, 1.0, 2.0), {}),
        "single-edge": ((3.0, 1.0), {(0, 1): 5.0}),
        "diamond": (
            (2.0, 4.0, 6.0, 2.0, 1.0),
            {(2, 3): 20.0, (0, 1): 10.0, (3, 4): 3.0, (0, 2): 7.0, (1, 3): 20.0},
        ),
        # Deeper than Placeto's 8 steps: gradient is still arriving at
        # ``e0`` when the backward reaches the first step.
        "deep-chain": (
            tuple(float(1 + i % 3) for i in range(11)),
            {**{(i, i + 1): 4.0 + i for i in range(10)}, (0, 5): 2.0, (3, 10): 6.0},
        ),
    }[name]
    return PlacementProblem(TaskGraph(compute, edges), _network(np.random.default_rng(9), num_devices))


PINNED = ("one-task", "edgeless", "single-edge", "diamond", "deep-chain")

layouts = given(
    seed=st.integers(0, 2**31),
    num_tasks=st.integers(1, 14),
    num_devices=st.integers(1, 5),
    edge_prob=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
)
trainable_layouts = given(  # >= 2 devices: see the module docstring
    seed=st.integers(0, 2**31),
    num_tasks=st.integers(1, 10),
    num_devices=st.integers(2, 5),
    edge_prob=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
)

GPNET_ARRAYS = (
    "task_of", "device_of", "is_pivot", "edge_src", "edge_dst", "node_features", "edge_features",
)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_view(view, ref):
    for name in GPNET_ARRAYS:
        assert same_bytes(getattr(view, name), getattr(ref, name)), name
    assert view.placement == ref.placement
    assert len(view.options) == len(ref.options)
    assert all(same_bytes(a, b) for a, b in zip(view.options, ref.options))


# -- the task view ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@layouts
@example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0)
@example(seed=1, num_tasks=6, num_devices=3, edge_prob=0.0)
def test_task_view_builder_equals_the_row_loops(seed, num_tasks, num_devices, edge_prob):
    problem = generated_problem(seed, num_tasks, num_devices, edge_prob)
    rng = np.random.default_rng(seed + 1)
    views = TaskViewBuilder(problem)
    built = []
    for _ in range(3):
        placement = random_placement(problem, rng)
        timeline = simulate(problem.graph, problem.network, placement, problem.cost_model)
        ref = task_view_loop(problem, placement, timeline)
        built.append(views.build(placement, timeline))
        assert_same_view(built[-1], ref)
        # Without a timeline both simulate the same schedule, and a
        # fresh builder builds the same view.
        assert_same_view(views.build(list(placement)), ref)
        assert_same_view(TaskViewBuilder(problem).build(placement), ref)
    # One structure object serves every view of the builder, and it is
    # the structure a view would have derived for itself.
    assert all(structure_of(v) is structure_of(built[0]) for v in built)
    shared, own = structure_of(built[0]), GpNetStructure.from_gpnet(built[-1])
    fields = ("nodes", "edges", "node_row", "row_bounds", "edge_bounds")
    assert all(same_bytes(getattr(shared, name), getattr(own, name)) for name in fields)


def test_task_view_builder_still_validates_every_placement():
    problem = generated_problem(3, 5, 3, 0.4)
    views = TaskViewBuilder(problem)
    views.build(random_placement(problem, np.random.default_rng(0)))
    with pytest.raises(ValueError, match="placement length"):
        views.build([0, 0])
    with pytest.raises(ValueError, match="infeasible"):
        views.build([7] * 5)


def test_search_derives_the_view_structure_once(monkeypatch):
    problem = generated_problem(5, 8, 3, 0.4)
    calls = []
    derive = GpNetStructure.from_gpnet.__func__
    monkeypatch.setattr(
        GpNetStructure,
        "from_gpnet",
        classmethod(lambda cls, net: calls.append(net) or derive(cls, net)),
    )
    agent = TaskEftAgent(np.random.default_rng(0))
    start = random_placement(problem, np.random.default_rng(1))
    agent.search(problem, OBJ, start, 16, np.random.default_rng(2))
    assert len(calls) == 1  # 16 at the parent commit: once per step
    with loop_views():
        agent.search(problem, OBJ, start, 16, np.random.default_rng(2))
    assert len(calls) == 1 + 16


# -- Placeto features and embedding ------------------------------------------------


@settings(max_examples=60, deadline=None)
@layouts
@example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0)
@example(seed=1, num_tasks=6, num_devices=3, edge_prob=0.0)
def test_placeto_features_and_embedding_equal_loop_and_composed_tape(
    seed, num_tasks, num_devices, edge_prob
):
    problem = generated_problem(seed, num_tasks, num_devices, edge_prob)
    rng = np.random.default_rng(seed + 1)
    layout = PlacetoLayout(problem)
    agent = PlacetoAgent(np.random.default_rng(seed + 2), num_devices)
    for current in (-1, int(rng.integers(0, num_tasks)), num_tasks - 1):
        placement = random_placement(problem, rng)
        placed = rng.random(num_tasks) < 0.5
        ref = placeto_features_loop(problem, placement, current, placed)
        feats = layout.features(placement, current, placed)
        assert same_bytes(feats, ref)
        assert same_bytes(PlacetoLayout(problem).features(list(placement), current, placed), ref)
        with composed_path():
            expected = agent.embedding(layout, feats)
        assert expected.shape == (num_tasks, 40)
        assert same_bytes(agent.embedding(layout, feats).data, expected.data)
        with no_grad():
            assert same_bytes(agent.embedding(layout, feats).data, expected.data)


def test_placeto_data_out_adds_in_edge_insertion_order():
    # ``data_out`` adds a task's out-edges in ``graph.edges`` (dict) order;
    # the one-pass sum of the layout must too, not in sorted order.
    graph = TaskGraph((1.0,) * 4, {(0, 3): 0.3, (0, 2): 0.2, (1, 3): 0.5, (0, 1): 0.1})
    assert data_out(graph, 0) == 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
    problem = PlacementProblem(graph, _network(np.random.default_rng(0), 2))
    args = ([0, 1, 0, 1], 2, np.zeros(4, dtype=bool))
    feats = PlacetoLayout(problem).features(*args)
    assert same_bytes(feats, placeto_features_loop(problem, *args))


@pytest.mark.parametrize("steps", [1, 3, 8])
@pytest.mark.parametrize(
    "edge_dim, how, edgeless",
    [
        (None, "mean", False),
        (None, "sum", False),
        (4, "mean", False),
        (4, "sum", False),
        (None, "mean", True),
        (4, "sum", True),
    ],
    ids=[
        "no-edge-features-mean",
        "no-edge-features-sum",
        "edge-features-mean",
        "edge-features-sum",
        "edgeless-mean",
        "edgeless-edge-features-sum",
    ],
)
def test_two_way_propagate_equals_the_composed_tapes_node_for_node(edge_dim, how, edgeless, steps):
    # One call, every leaf's gradient compared directly against two
    # ``propagate_composed`` passes and a ``concat``.  The graph is a
    # 10-task chain (deeper than every step count run, so each
    # direction's first-step scatter into ``e0.grad`` and its
    # ``_accumulate`` are both non-zero on the same rows and their order
    # shows; ``e0`` takes both directions' terms, so their order shows
    # too) plus skip edges out of task 0.  Task 0 has no parents, a zero
    # embedding and zero edge features out, and ``Linear`` biases start at
    # zero: every message task 0 sends has a pre-activation of exactly
    # 0.0 and every task without senders (task 0 forward, task 9
    # backward) an ``h`` of exactly 0.0, at every step; tasks 2, 5 and 8
    # hear from the chain too, so gradient does reach those messages —
    # ``>`` and ``>=`` differ in either relu mask.
    n = 10
    src = np.array([*range(n - 1), 0, 0, 0])
    dst = np.array([*range(1, n), 2, 5, 8])
    if edgeless:
        src = dst = np.zeros(0, dtype=np.int64)
    senders, receivers = F.two_way_ids(src, dst, n)
    counts = F._segment_counts(receivers, 2 * n)[:, None] if how == "mean" else np.ones((2 * n, 1))
    rng = np.random.default_rng(0)
    e0_data, upstream = rng.normal(size=(n, 5)), rng.normal(size=(n, 10))
    e0_data[0] = 0.0
    upstream[3, 7] = -0.0
    edge_features = None
    if edge_dim is not None:
        edge_features = rng.normal(size=(len(src), edge_dim))
        edge_features[src == 0] = 0.0
    msg_dim = 5 + (edge_dim or 0)
    outcomes = []
    for propagate in (F.propagate, partial(two_way_composed, how=how)):
        init = np.random.default_rng(1)
        layers = [(Linear(msg_dim, msg_dim, init), Linear(msg_dim, 5, init)) for _ in range(2)]
        e0 = Tensor(e0_data, requires_grad=True)
        out = propagate(e0, senders, receivers, counts, layers, steps, edge_features)
        out.backward(upstream)
        leaves = [e0] + [t for pair in layers for layer in pair for t in (layer.weight, layer.bias)]
        outcomes.append([out.data] + [leaf.grad for leaf in leaves])
    assert outcomes[0][0].flags.c_contiguous and outcomes[0][0].shape == (n, 10)
    assert all((a is None and b is None) or same_bytes(a, b) for a, b in zip(*outcomes))
    # Not vacuous: a message layer is on the tape exactly when there are edges.
    assert (outcomes[0][2] is None) == (outcomes[0][6] is None) == edgeless


@pytest.mark.parametrize("bad", [-1, 8], ids=["negative", "past-the-rows"])
def test_two_way_propagate_refuses_a_receiver_outside_its_rows(bad):
    senders, receivers = F.two_way_ids(np.array([0, 1, 2]), np.array([1, 2, 3]), 4)
    receivers[2] = bad
    init = np.random.default_rng(0)
    layers = [(Linear(5, 5, init), Linear(5, 5, init)) for _ in range(2)]
    with pytest.raises(ValueError, match=r"receivers outside \[0, 8\)"):
        F.propagate(Tensor(np.ones((4, 5))), senders, receivers, np.ones((8, 1)), layers, 2)


def test_composed_path_reaches_both_fused_nodes():
    problem = pinned_problem("diamond")
    layout = PlacetoLayout(problem)
    placeto_embedding = PlacetoAgent(np.random.default_rng(0), 3).embedding
    giph_k = make_embedding("giph-3", np.random.default_rng(0))
    net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
    feats = layout.features(random_placement(problem, np.random.default_rng(1)), 2, np.zeros(5, bool))

    def ops():
        node = placeto_embedding(layout, feats)
        return node._op, node._parents[0]._op, giph_k(net)._parents[0]._op

    assert ops() == ("placeto-summaries", "propagate", "propagate")
    with composed_path():
        assert ops() == ("concat", "concat", "concat")


@settings(max_examples=40, deadline=None)
@layouts
@example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0)
@example(seed=1, num_tasks=6, num_devices=3, edge_prob=0.0)
def test_placeto_summaries_equal_the_composed_tape(seed, num_tasks, num_devices, edge_prob):
    # Output and ``node``'s gradient: its own columns, the parents' and
    # the children's scatter and the pooled row, in the composed order.
    # Zeros of both signs in the node and the upstream gradient.
    layout = PlacetoLayout(generated_problem(seed, num_tasks, num_devices, edge_prob))
    rng = np.random.default_rng(seed)
    node_data = rng.normal(size=(num_tasks, 10)) * (rng.random((num_tasks, 10)) < 0.8)
    upstream = rng.normal(size=(num_tasks, 40)) * (rng.random((num_tasks, 40)) < 0.7)
    upstream[rng.random((num_tasks, 40)) < 0.1] = -0.0
    node_data[rng.random((num_tasks, 10)) < 0.1] = -0.0
    outcomes = []
    for summaries in (placeto._summaries, placeto_summaries_composed):
        node = Tensor(node_data, requires_grad=True)
        out = summaries(node, layout)
        out.backward(upstream)
        outcomes.append((out.data, node.grad))
    assert all(same_bytes(a, b) for a, b in zip(*outcomes))


# -- gradients and trained weights ---------------------------------------------------


def _weights(agent):
    return [p.data.tobytes() for p in agent.parameters()]


def _grads(agent):
    return [None if p.grad is None else p.grad.tobytes() for p in agent.parameters()]


def assert_training_is_a_fixed_point(make_trainer, problem, reference_path, episodes=5):
    """Same-seed training under the shipped path and under
    ``reference_path()``: equal gradients after one episode, equal
    rewards, weights and rng state after ``episodes``.  Returns the
    agent trained on the shipped path."""
    outcomes = []
    for path in (nullcontext, reference_path):
        trainer = make_trainer()
        rng = np.random.default_rng(11)
        with path():
            stats = [trainer.run_episode(problem, rng)]
            grads = _grads(trainer.agent)
            stats += [trainer.run_episode(problem, rng) for _ in range(episodes - 1)]
        outcomes.append(
            (trainer.agent, grads, stats, _weights(trainer.agent), rng.bit_generator.state)
        )
    shipped, expected = outcomes
    assert shipped[1] == expected[1], "gradients after one episode"
    assert shipped[2:] == expected[2:], "episode stats / weights / rng after training"
    return shipped[0]


def placeto_trainer(problem):
    def make():
        agent = PlacetoAgent(np.random.default_rng(3), problem.network.num_devices)
        return ReinforceTrainer(agent, OBJ)

    return make


def task_eft_trainer():
    return ReinforceTrainer(TaskEftAgent(np.random.default_rng(7)), OBJ)


def giph_k_trainer(kind):
    def make():
        rng = np.random.default_rng(5)
        embedding = make_embedding(kind, rng)
        return ReinforceTrainer(GiPHAgent(rng, embedding=embedding), OBJ)

    return make


@settings(max_examples=12, deadline=None)
@trainable_layouts
def test_placeto_training_equals_the_composed_tape_on_generated_problems(
    seed, num_tasks, num_devices, edge_prob
):
    problem = generated_problem(seed, num_tasks, num_devices, edge_prob)
    assert_training_is_a_fixed_point(placeto_trainer(problem), problem, composed_path)


@pytest.mark.parametrize("num_devices", [2, 3])
@pytest.mark.parametrize("name", PINNED)
def test_placeto_training_equals_the_composed_tape_on_pinned_shapes(name, num_devices):
    problem = pinned_problem(name, num_devices)
    agent = assert_training_is_a_fixed_point(placeto_trainer(problem), problem, composed_path)
    # Not vacuous: the aggregation layers saw a gradient; on an edgeless
    # graph the message layers are off the tape entirely.
    assert agent.embedding.fwd_agg.weight.grad is not None
    assert (agent.embedding.fwd_msg.weight.grad is not None) == bool(problem.graph.num_edges)


@pytest.mark.parametrize("kind", ["giph-1", "giph-3", "giph-5"])
@settings(max_examples=4, deadline=None)
@trainable_layouts
@example(seed=0, num_tasks=6, num_devices=3, edge_prob=0.0)
@example(seed=1, num_tasks=1, num_devices=2, edge_prob=1.0)
def test_giph_k_equals_the_composed_tape_on_generated_problems(
    kind, seed, num_tasks, num_devices, edge_prob
):
    # GiPH-k runs the pass Placeto does, with the gpNet's edge features:
    # same oracle, same outputs, gradients and trained weights.
    problem = generated_problem(seed, num_tasks, num_devices, edge_prob)
    agent = assert_training_is_a_fixed_point(giph_k_trainer(kind), problem, composed_path)
    net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(seed)))
    with composed_path():
        expected = agent.embedding(net).data
    assert same_bytes(agent.embedding(net).data, expected)
    with no_grad():
        assert same_bytes(agent.embedding(net).data, expected)


@settings(max_examples=8, deadline=None)
@trainable_layouts
def test_task_eft_training_equals_the_loop_view_on_generated_problems(
    seed, num_tasks, num_devices, edge_prob
):
    problem = generated_problem(seed, num_tasks, num_devices, edge_prob)
    assert_training_is_a_fixed_point(task_eft_trainer, problem, loop_views, episodes=3)


@pytest.mark.parametrize("name", PINNED)
def test_task_eft_training_equals_the_loop_view_on_pinned_shapes(name):
    problem = pinned_problem(name)
    assert_training_is_a_fixed_point(task_eft_trainer, problem, loop_views, episodes=3)


def test_searches_after_training_equal_the_reference_paths():
    problem = generated_problem(21, 9, 4, 0.4)
    start = random_placement(problem, np.random.default_rng(1))
    for make, reference_path in (
        (placeto_trainer(problem), composed_path),
        (task_eft_trainer, loop_views),
    ):
        trainer = make()
        trainer.train([problem], np.random.default_rng(2), episodes=2)
        trace = trainer.agent.search(problem, OBJ, start, 20, np.random.default_rng(3))
        with reference_path():
            expected = trainer.agent.search(problem, OBJ, start, 20, np.random.default_rng(3))
        assert trace == expected
