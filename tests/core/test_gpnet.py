"""gpNet construction tests against the paper's Algorithm (App. B.1)."""

import dataclasses

import numpy as np
import pytest
from gnn_reference import (
    build_gpnet,
    directions,
    levels_from_every_gpnet_edge,
    node_index,
    structure_reference,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.task_eft import TaskViewBuilder
from repro.core import FeatureConfig, GpNetBuilder, PlacementProblem, random_placement
from repro.core.features import GpNetStructure, endpoint_rows_of
from repro.devices import Device, DeviceNetwork, DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraph, TaskGraphParams, generate_task_graph


def build(problem, placement, **cfg):
    return GpNetBuilder(problem, FeatureConfig(**cfg)).build(placement)


class TestSizes:
    def test_node_count_formula(self, diamond_problem):
        # |V_H| = sum_i |D_i| = 3+3+3+1
        net = build(diamond_problem, [0, 0, 0, 2])
        assert net.num_nodes == 10

    def test_edge_count_formula(self, diamond_problem):
        # |E_H| = sum_i |D_i|*|E_i| - |E|
        g = diamond_problem.graph
        sizes = [len(s) for s in diamond_problem.feasible_sets]
        degree = [len(g.parents[i]) + len(g.children[i]) for i in range(g.num_tasks)]
        expected = sum(size * deg for size, deg in zip(sizes, degree)) - g.num_edges
        net = build(diamond_problem, [0, 0, 0, 2])
        assert net.num_edges == expected

    def test_one_pivot_per_task(self, diamond_problem):
        net = build(diamond_problem, [1, 0, 2, 2])
        assert net.is_pivot.sum() == 4
        for i, opts in enumerate(net.options):
            pivots = opts[net.is_pivot[opts]]
            assert len(pivots) == 1
            assert net.device_of[pivots[0]] == [1, 0, 2, 2][i]


class TestStructure:
    def test_every_edge_touches_a_pivot(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2])
        for s, d in zip(net.edge_src, net.edge_dst):
            assert net.is_pivot[s] or net.is_pivot[d]

    def test_edges_follow_task_graph(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2])
        g = diamond_problem.graph
        for s, d in zip(net.edge_src, net.edge_dst):
            assert (int(net.task_of[s]), int(net.task_of[d])) in g.edges

    def test_no_duplicate_edges(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2])
        pairs = list(zip(net.edge_src.tolist(), net.edge_dst.tolist()))
        assert len(pairs) == len(set(pairs))

    def test_nonpivot_connects_only_to_pivots(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2])
        for s, d in zip(net.edge_src, net.edge_dst):
            if not net.is_pivot[s]:
                assert net.is_pivot[d]
            if not net.is_pivot[d]:
                assert net.is_pivot[s]

    def test_node_index_roundtrip(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2])
        for u in range(net.num_nodes):
            task, dev = net.action_of(u)
            assert node_index(net, task, dev) == u

    def test_node_index_infeasible(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2])
        with pytest.raises(KeyError):
            node_index(net, 3, 0)  # task 3 only feasible on device 2

    def test_infeasible_placement_rejected(self, diamond_problem):
        with pytest.raises(ValueError, match="infeasible"):
            build(diamond_problem, [0, 0, 0, 0])

    def test_constrained_task_has_single_option(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2])
        assert len(net.options[3]) == 1


class TestFeatures:
    def test_feature_shapes(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2], normalize=False)
        assert net.node_features.shape == (net.num_nodes, 4)
        assert net.edge_features.shape == (net.num_edges, 4)

    def test_node_features_unnormalized_values(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2], normalize=False)
        g, cm = diamond_problem.graph, diamond_problem.cost_model
        u = node_index(net, 1, 2)  # task 1 on device 2
        c, sp, w, pot = net.node_features[u]
        assert c == g.compute[1]
        assert sp == diamond_problem.network.devices[2].speed
        assert w == cm.compute_time(1, 2)

    def test_pivot_potential_nonpositive(self, diamond_problem):
        # A pivot's earliest possible start can never exceed its actual
        # start (queueing only delays), so potential <= 0.
        net = build(diamond_problem, [0, 1, 2, 2], normalize=False)
        for u in np.flatnonzero(net.is_pivot):
            assert net.node_features[u, 3] <= 1e-9

    def test_entry_pivot_potential_zero(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2], normalize=False)
        entry_pivot = [u for u in np.flatnonzero(net.is_pivot) if net.task_of[u] == 0][0]
        assert net.node_features[entry_pivot, 3] == pytest.approx(0.0)

    def test_ablated_potential_is_zero_column(self, diamond_problem):
        net = build(diamond_problem, [0, 0, 0, 2], use_start_time_potential=False, normalize=False)
        np.testing.assert_allclose(net.node_features[:, 3], 0.0)
        assert net.node_features.shape[1] == 4

    def test_normalization_unit_mean_magnitude(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2], normalize=True)
        mags = np.abs(net.node_features).mean(axis=0)
        for col, mag in enumerate(mags):
            if mag > 0:
                assert mag == pytest.approx(1.0), f"column {col}"

    def test_edge_features_unnormalized_values(self, diamond_problem):
        net = build(diamond_problem, [0, 1, 2, 2], normalize=False)
        g, nw, cm = diamond_problem.graph, diamond_problem.network, diamond_problem.cost_model
        # find edge from pivot of 0 (dev 0) to option (1, dev 2)
        src = node_index(net, 0, 0)
        dst = node_index(net, 1, 2)
        k = [i for i in range(net.num_edges) if net.edge_src[i] == src and net.edge_dst[i] == dst]
        assert len(k) == 1
        b, inv_bw, dl, c = net.edge_features[k[0]]
        assert b == g.edges[(0, 1)]
        assert inv_bw == pytest.approx(1.0 / nw.bandwidth[0, 2])
        assert dl == nw.delay[0, 2]
        assert c == pytest.approx(cm.comm_time((0, 1), 0, 2))

    def test_local_edge_inverse_bandwidth_zero(self, diamond_problem):
        net = build(diamond_problem, [2, 2, 2, 2], normalize=False)
        src, dst = node_index(net, 0, 2), node_index(net, 1, 2)
        k = [i for i in range(net.num_edges) if net.edge_src[i] == src and net.edge_dst[i] == dst][0]
        assert net.edge_features[k, 1] == 0.0
        assert net.edge_features[k, 3] == 0.0


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=8000),
    cols=st.integers(min_value=4, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(rows=0, cols=4, seed=0)
@example(rows=1, cols=4, seed=1)
@example(rows=8000, cols=9, seed=2)
def test_normalize_scale_is_the_column_mean_bit_for_bit(rows, cols, seed):
    """``GpNetBuilder._normalize`` divides by ``np.abs(x).mean(axis=0)``'s
    floats exactly, on row-major arrays of 4-9 columns (every feature
    array here): signs, -0.0, subnormals and magnitudes 1e-300 to 1e300."""
    rng = np.random.default_rng(seed)
    shape = (rows, cols)
    x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300, 300, shape)
    x[rng.random(shape) < 0.1] = -0.0
    subnormal = rng.random(shape) < 0.1
    x[subnormal] = 5e-324 * rng.integers(1, 2**20, subnormal.sum())
    if rows:
        scale = np.abs(x).mean(axis=0)
        want = x / np.where(scale > 1e-12, scale, 1.0)
    else:
        want = x
    got = GpNetBuilder._normalize(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=2, max_value=15),
    num_devices=st.integers(min_value=2, max_value=6),
)
def test_gpnet_size_formulas_hold_generally(seed, num_tasks, num_devices):
    """Property: |V_H| and |E_H| match §4.2.1's closed forms on random
    instances with placement constraints."""
    rng = np.random.default_rng(seed)
    g = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.4), rng)
    nw = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    problem = PlacementProblem(g, nw)
    placement = random_placement(problem, rng)
    net = GpNetBuilder(problem).build(placement)

    sizes = [len(s) for s in problem.feasible_sets]
    assert net.num_nodes == sum(sizes)
    degree = [len(g.parents[i]) + len(g.children[i]) for i in range(num_tasks)]
    expected_edges = sum(size * deg for size, deg in zip(sizes, degree)) - g.num_edges
    assert net.num_edges == expected_edges
    assert net.is_pivot.sum() == num_tasks
    for s, d in zip(net.edge_src, net.edge_dst):
        assert net.is_pivot[s] or net.is_pivot[d]


def random_layout_problem(seed, num_tasks, num_devices, edge_prob, chain=False):
    """A random DAG on a random network; hardware type 1 lives on device 0
    only, so every task requiring it has exactly one feasible device.
    ``chain`` links each task to the next instead (``edge_prob`` unused)."""
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(num_tasks - 1)] if chain else [
        (i, j) for i in range(num_tasks) for j in range(i + 1, num_tasks)
    ]
    edges = {
        pair: float(rng.uniform(1.0, 50.0)) for pair in pairs if chain or rng.random() < edge_prob
    }
    graph = TaskGraph(
        compute=tuple(rng.uniform(1.0, 10.0, num_tasks)),
        edges=edges,
        requirements=tuple(int(r) for r in rng.integers(0, 2, num_tasks)),
    )
    devices = [
        Device(uid=k, speed=float(rng.uniform(0.5, 4.0)), supports=frozenset({0, 1} if k == 0 else {0}))
        for k in range(num_devices)
    ]
    bw = rng.uniform(1.0, 20.0, (num_devices, num_devices))
    np.fill_diagonal(bw, np.inf)
    dl = rng.uniform(0.0, 2.0, (num_devices, num_devices))
    np.fill_diagonal(dl, 0.0)
    return PlacementProblem(graph, DeviceNetwork(devices, bw, dl))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=1, max_value=9),
    num_devices=st.integers(min_value=1, max_value=5),
    edge_prob=st.sampled_from([0.0, 0.3, 1.0]),
)
@example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0)  # single task, single device
@example(seed=1, num_tasks=5, num_devices=3, edge_prob=0.0)  # edgeless
@example(seed=2, num_tasks=6, num_devices=4, edge_prob=0.3)  # tasks 0-2 pinned to device 0
def test_builder_build_equals_algorithm_reference(seed, num_tasks, num_devices, edge_prob):
    """Property: ``GpNetBuilder.build`` (whole-block array writer) equals
    ``build_gpnet`` (Algorithm "gpNet", App. B.1, one Python call per
    edge) array for array — single task, single device, pinned tasks
    and edgeless graphs included."""
    problem = random_layout_problem(seed, num_tasks, num_devices, edge_prob)
    placement = random_placement(problem, np.random.default_rng(seed + 1))
    net = GpNetBuilder(problem, FeatureConfig(normalize=False)).build(placement)

    g, nw, cm = problem.graph, problem.network, problem.cost_model

    def f_e(edge, src_dev, dst_dev):
        bw = nw.bandwidth[src_dev, dst_dev]
        return np.array(
            [
                g.edges[edge],
                0.0 if np.isinf(bw) else 1.0 / bw,
                nw.delay[src_dev, dst_dev],
                cm.comm_time(edge, src_dev, dst_dev),
            ]
        )

    ref = build_gpnet(problem, placement, net.node_features, f_e)
    assert net.placement == ref.placement
    for name in (
        "task_of",
        "device_of",
        "is_pivot",
        "edge_src",
        "edge_dst",
        "node_features",
        "edge_features",
    ):
        got, want = getattr(net, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert (got == want).all(), name
    assert len(net.options) == len(ref.options)
    assert all((x == y).all() for x, y in zip(net.options, ref.options))


def assert_nets_equal(got, want):
    assert got.placement == want.placement
    for name in (
        "task_of",
        "device_of",
        "is_pivot",
        "edge_src",
        "edge_dst",
        "node_features",
        "edge_features",
    ):
        assert (getattr(got, name) == getattr(want, name)).all(), name
    assert all((x == y).all() for x, y in zip(got.options, want.options))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=2, max_value=9),
    num_devices=st.integers(min_value=2, max_value=5),
    potential=st.booleans(),
)
def test_update_chain_over_every_task_equals_full_build(seed, num_tasks, num_devices, potential):
    """Property: relocating every task once — in random order, one of them
    without any incident edge — and then one task twice in a row, each
    ``update`` equals a fresh ``build`` of the same placement."""
    base = random_layout_problem(seed, num_tasks, num_devices, edge_prob=0.5)
    isolated = seed % num_tasks
    graph = TaskGraph(
        compute=base.graph.compute,
        edges={e: b for e, b in base.graph.edges.items() if isolated not in e},
        requirements=base.graph.requirements,
    )
    problem = PlacementProblem(graph, base.network)
    config = FeatureConfig(use_start_time_potential=potential)
    incremental, reference = GpNetBuilder(problem, config), GpNetBuilder(problem, config)
    rng = np.random.default_rng(seed + 1)
    placement = list(random_placement(problem, rng))
    current = incremental.build(placement)

    def move(task):
        # Next feasible device round-robin: a real relocation unless pinned.
        feas = problem.feasible_sets[task]
        placement[task] = feas[(feas.index(placement[task]) + 1) % len(feas)]
        net = incremental.update(current, tuple(placement), task)
        assert_nets_equal(net, reference.build(tuple(placement)))
        return net

    for task in rng.permutation(num_tasks):
        current = move(int(task))
    repeated = max(range(num_tasks), key=lambda t: len(problem.feasible_sets[t]))
    current = move(repeated)
    current = move(repeated)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=1, max_value=9),
    num_devices=st.integers(min_value=1, max_value=5),
    edge_prob=st.sampled_from([0.0, 0.3, 0.7]),
    steps=st.lists(
        st.tuples(st.sampled_from(["move", "jump", "stay", "stale"]), st.integers(0, 2**16)),
        min_size=1,
        max_size=12,
    ),
)
@example(seed=0, num_tasks=5, num_devices=3, edge_prob=0.7,
         steps=[("move", 1), ("stay", 1), ("jump", 0), ("move", 2), ("stale", 0), ("move", 3)])
def test_builder_endpoint_rows_equal_a_fresh_derivation(
    seed, num_tasks, num_devices, edge_prob, steps
):
    """Property: the endpoint rows a builder attaches — derived by
    ``build``, patched in place of the moved task's blocks by ``update`` —
    equal a from-scratch derivation on a plain copy of the net after any
    sequence of one-task moves, jumps (several tasks move: ``update``
    falls back to ``build``), no-move updates (the previous net comes
    back) and updates from an older net (another placement: a fallback;
    the same placement: rows derived afresh)."""
    problem = random_layout_problem(seed, num_tasks, num_devices, edge_prob)
    builder = GpNetBuilder(problem)
    rng = np.random.default_rng(seed)
    current = builder.build(random_placement(problem, rng))
    history = [current]
    for kind, k in steps:
        prev = history[k % len(history)] if kind == "stale" else current
        placement, task = list(prev.placement), k % num_tasks
        if kind == "jump":
            placement = list(random_placement(problem, rng))
        elif kind != "stay":
            feas = problem.feasible_sets[task]
            placement[task] = feas[(feas.index(placement[task]) + 1) % len(feas)]
        current = builder.update(prev, tuple(placement), task)
        if kind == "stay":
            assert current is prev
        history.append(current)
        attached = current._endpoint_rows  # by the builder, before any forward
        rows = endpoint_rows_of(current)
        assert rows[0].base is rows[1].base is attached
        fresh = endpoint_rows_of(dataclasses.replace(current))
        assert all(np.array_equal(a, b) for a, b in zip(rows, fresh))


def test_task_views_share_one_pair_of_endpoint_rows(diamond_problem):
    """A task view's endpoints never move: every view of a problem carries
    the first view's rows, which equal a fresh derivation."""
    views = TaskViewBuilder(diamond_problem)
    nets = [views.build(p) for p in ([0, 0, 0, 2], [1, 2, 0, 2], [2, 1, 1, 2])]
    assert all(net._endpoint_rows is nets[0]._endpoint_rows for net in nets)
    fresh = endpoint_rows_of(dataclasses.replace(nets[-1]))
    assert all(np.array_equal(a, b) for a, b in zip(endpoint_rows_of(nets[-1]), fresh))


# -- frontier plans: the sort-based derivation, kept as the oracle ------------------


def assert_same_structure(got, want):
    """``tobytes()`` equality of every plan array, dtypes included."""
    for name in ("nodes", "edges", "node_row", "row_bounds", "edge_bounds"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), name


def nets_of(problem, placement, rng):
    """The same layout as a builder gpNet, a task view and an Algorithm
    "gpNet" net, each also with its edges in a random order."""
    builder_net = GpNetBuilder(problem).build(placement)
    nets = [
        builder_net,
        TaskViewBuilder(problem).build(placement),
        build_gpnet(problem, placement, builder_net.node_features, lambda e, a, b: np.zeros(4)),
    ]
    for net in list(nets):
        perm = rng.permutation(net.num_edges)
        nets.append(dataclasses.replace(
            net,
            edge_src=net.edge_src[perm],
            edge_dst=net.edge_dst[perm],
            edge_features=net.edge_features[perm],
        ))
    return nets


def check_structure_against_oracle(problem, placement):
    rng = np.random.default_rng(len(placement))
    for net in nets_of(problem, placement, rng):
        structure = GpNetStructure.from_gpnet(net)
        assert_same_structure(structure, structure_reference(net))
        src_tasks, dst_tasks = net.task_of[net.edge_src], net.task_of[net.edge_dst]
        for plan, (senders, receivers) in zip(
            directions(structure, net), ((src_tasks, dst_tasks), (dst_tasks, src_tasks))
        ):
            want = levels_from_every_gpnet_edge(senders, receivers, len(net.options))
            assert [lv.tasks for lv in plan.levels] == [
                tuple(np.flatnonzero(want == lv)) for lv in range(want.max() + 1)
            ]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=2, max_value=20),
    num_devices=st.integers(min_value=2, max_value=6),
)
def test_task_levels_equal_per_gpnet_edge_oracle(seed, num_tasks, num_devices):
    rng = np.random.default_rng(seed)
    g = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.4), rng)
    nw = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    problem = PlacementProblem(g, nw)
    check_structure_against_oracle(problem, random_placement(problem, rng))


@pytest.mark.parametrize(
    "num_tasks, edge_prob", [(1, 1.0), (5, 0.0), (6, "chain")],
    ids=["single-task", "edgeless", "chain"],
)
def test_task_levels_degenerate_graphs(num_tasks, edge_prob):
    chain = edge_prob == "chain"
    problem = random_layout_problem(3, num_tasks, 3, 0.0 if chain else edge_prob, chain)
    check_structure_against_oracle(problem, random_placement(problem, np.random.default_rng(0)))


def test_the_48_by_12_structure_equals_the_oracle():
    rng = np.random.default_rng(0)
    g = generate_task_graph(TaskGraphParams(num_tasks=48), rng)
    problem = PlacementProblem(g, generate_device_network(DeviceNetworkParams(num_devices=12), rng))
    check_structure_against_oracle(problem, random_placement(problem, rng))


@pytest.mark.parametrize("loop", ["two-task cycle", "self loop"])
def test_cyclic_task_order_raises(loop):
    problem = random_layout_problem(4, 3, 3, 0.0, chain=True)
    net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(0)))
    if loop == "two-task cycle":  # every edge also backwards: 0 -> 1 -> 0
        src, dst = np.r_[net.edge_src, net.edge_dst], np.r_[net.edge_dst, net.edge_src]
    else:  # one edge between two options of task 0
        src, dst = np.r_[net.edge_src, net.options[0][:1]], np.r_[net.edge_dst, net.options[0][-1:]]
    cyclic = dataclasses.replace(net, edge_src=src, edge_dst=dst)
    for derive in (GpNetStructure.from_gpnet, structure_reference):
        with pytest.raises(RuntimeError, match="cyclic task order"):
            derive(cyclic)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=1, max_value=14),
    num_devices=st.integers(min_value=1, max_value=5),
    edge_prob=st.sampled_from([0.0, 0.3, 1.0, "chain"]),
)
@example(seed=0, num_tasks=6, num_devices=3, edge_prob=0.0)  # edgeless
@example(seed=1, num_tasks=1, num_devices=4, edge_prob=1.0)  # one task
@example(seed=2, num_tasks=7, num_devices=3, edge_prob="chain")
def test_sweep_plans_partition_nodes_and_edges_by_level(seed, num_tasks, num_devices, edge_prob):
    """What the sweep's once-per-pass gradients rest on: the lock-step plan
    lists every doubled node and edge id once, ``node_row`` inverts its
    node order, and in each direction the levels partition the node ids
    and the edge ids, every edge sits in its receiver's level, and its
    sender sits in a strictly lower one."""
    chain = edge_prob == "chain"
    problem = random_layout_problem(seed, num_tasks, num_devices, 0.0 if chain else edge_prob, chain)
    net = GpNetBuilder(problem).build(random_placement(problem, np.random.default_rng(seed)))
    structure = GpNetStructure.from_gpnet(net)
    assert sorted(structure.nodes.tolist()) == list(range(2 * net.num_nodes))
    assert sorted(structure.edges.tolist()) == list(range(2 * net.num_edges))
    assert (structure.node_row[structure.nodes] == np.arange(2 * net.num_nodes)).all()
    for plan, (senders, receivers) in zip(
        directions(structure, net), ((net.edge_src, net.edge_dst), (net.edge_dst, net.edge_src))
    ):
        nodes = np.concatenate([lv.nodes for lv in plan.levels])
        edges = np.concatenate([lv.edge_idx for lv in plan.levels])
        assert sorted(nodes.tolist()) == list(range(net.num_nodes))
        assert sorted(edges.tolist()) == list(range(net.num_edges))
        level_of = np.empty(net.num_nodes, dtype=np.int64)
        edge_level = np.empty(net.num_edges, dtype=np.int64)
        for k, lv in enumerate(plan.levels):
            level_of[lv.nodes] = k
            edge_level[lv.edge_idx] = k
        assert (level_of[receivers] == edge_level).all()
        assert (level_of[senders] < level_of[receivers]).all()
