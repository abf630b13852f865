"""Fault harness, generated send orders: the fast walk sequences a finished
task's sends as the exact simulator does, not in ``graph.edges`` order.

The exact simulator schedules a finished task's sends in
``TaskGraph.children`` order (sorted), and every send takes a sequence
number; of two inputs landing together, the later-numbered one is
processed last, which decides which task a shared device runs first.
``FastSimulator`` keeps its edge arrays in ``graph.edges`` (insertion)
order, so a walk that sent in that order would number the sends
differently and still agree whenever an insertion order happens to be
sorted.  Every graph here is drawn so that it is not: each task's
out-edges are inserted in descending child order, interleaved across
tasks.  Costs are tie-heavy (compute times in {0, 1, 2}, delays in
{0, 1}, no bandwidth term) and devices few, so simultaneous arrivals on
a shared device are common and the sequence numbers decide schedules.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import random_placement
from repro.core.placement import PlacementProblem
from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph
from repro.runtime.fastsim import FastSimulator
from repro.sim.executor import simulate
from repro.sim.latency import CostModel

PLACEMENTS = 8  # per generated problem


def send_order_problem(seed, num_tasks, num_devices, edge_prob):
    """A random DAG whose ``edges`` insertion order is not its send order,
    with tie-heavy costs on ``num_devices`` devices."""
    rng = np.random.default_rng(seed)
    pairs = [
        (i, j) for i in range(num_tasks) for j in range(i + 1, num_tasks) if rng.random() < edge_prob
    ]
    rng.shuffle(pairs)
    # Keep the shuffled interleaving of sources, but give each source its
    # children in descending order: the reverse of ``children[i]``.
    by_source = {}
    for i, j in pairs:
        by_source.setdefault(i, []).append(j)
    queues = {i: sorted(js, reverse=True) for i, js in by_source.items()}
    edges = {(i, queues[i].pop(0)): 1.0 for i, _ in pairs}
    graph = TaskGraph(compute=(1.0,) * num_tasks, edges=edges)
    devices = [Device(uid=k, speed=1.0) for k in range(num_devices)]
    shape = (num_devices, num_devices)
    delay = rng.integers(0, 2, shape).astype(np.float64)
    np.fill_diagonal(delay, 0.0)
    network = DeviceNetwork(devices, np.full(shape, np.inf), delay)
    compute = rng.integers(0, 3, (num_tasks, num_devices)).astype(np.float64)
    return PlacementProblem(graph, network, CostModel(graph, network, compute))


def assert_send_order_differs(graph):
    """Not vacuous: a task with two children inserts them out of order."""
    inserted = {}
    for i, j in graph.edges:
        inserted.setdefault(i, []).append(j)
    fanned = [i for i, js in inserted.items() if len(js) > 1]
    assert all(inserted[i] != list(graph.children[i]) for i in fanned)
    return bool(fanned)


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    num_tasks=st.integers(2, 12),
    num_devices=st.integers(1, 3),
    edge_prob=st.sampled_from([0.3, 0.6, 1.0]),
)
@example(seed=0, num_tasks=4, num_devices=2, edge_prob=0.3)  # fails a walk sending in edges order
def test_fast_walk_equals_the_executor_when_sends_are_inserted_out_of_order(
    seed, num_tasks, num_devices, edge_prob
):
    problem = send_order_problem(seed, num_tasks, num_devices, edge_prob)
    assert_send_order_differs(problem.graph)
    sim = FastSimulator(problem)
    rng = np.random.default_rng(seed + 1)
    placements = [random_placement(problem, rng) for _ in range(PLACEMENTS)]
    for placement in placements:
        exact = simulate(problem.graph, problem.network, placement, problem.cost_model)
        fast = sim.run(placement)
        for field in ("start", "finish", "device_last_finish"):
            assert np.array_equal(getattr(fast, field), getattr(exact, field)), (field, placement)
        assert fast.makespan == exact.makespan, placement
    assert sim.makespans(np.array(placements)) == [
        simulate(problem.graph, problem.network, p, problem.cost_model).makespan for p in placements
    ]


def test_the_generator_reorders_every_fanned_out_task():
    fanned = [
        assert_send_order_differs(send_order_problem(seed, 8, 2, 0.6).graph) for seed in range(20)
    ]
    assert all(fanned)
