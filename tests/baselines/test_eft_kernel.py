"""The scalar EFT kernel against its reference loop.

``reference_eft_estimates`` is the EFT expression spelled through the
public ``CostModel`` accessors, one ``comm_time`` call per (device,
parent) — the form ``repro.baselines.eft.eft_estimates`` had before it
became a kernel over Python-float rows.  The kernel must return the
same dict, ``==`` on the floats: it performs the same IEEE operations
in the same order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import RandomTaskEftPolicy, eft_device, eft_estimates
from repro.core.placement import PlacementProblem, random_placement
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.runtime import PlacementEvaluator
from repro.sim.executor import simulate
from repro.sim.objectives import MakespanObjective


def reference_eft_estimates(problem, placement, task, timeline=None):
    graph, cm = problem.graph, problem.cost_model
    placement = list(placement)
    if timeline is None:
        timeline = simulate(graph, problem.network, placement, cm)

    estimates = {}
    for d in problem.feasible_sets[task]:
        ready = 0.0
        for p in graph.parents[task]:
            ready = max(ready, timeline.finish[p] + cm.comm_time((p, task), placement[p], d))
        device_ready = float(timeline.device_last_finish[d])
        if d == placement[task]:
            # The task itself is the device's load; don't double count it.
            device_ready = min(device_ready, float(timeline.start[task]))
        estimates[d] = max(ready, device_ready) + cm.compute_time(task, d)
    return estimates


def reference_eft_device(problem, placement, task, timeline=None):
    estimates = reference_eft_estimates(problem, placement, task, timeline)
    return min(estimates, key=lambda d: (estimates[d], d))


def make_problem(seed: int) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    graph = generate_task_graph(
        TaskGraphParams(
            num_tasks=int(rng.integers(1, 16)),
            connect_prob=float(rng.uniform(0.1, 0.7)),
            constraint_prob=float(rng.uniform(0.0, 0.5)),
        ),
        rng,
    )
    network = generate_device_network(
        DeviceNetworkParams(num_devices=int(rng.integers(1, 9))), rng
    )
    return PlacementProblem(graph, network)


def assert_same_estimates(problem, placement, task, timeline=None):
    got = eft_estimates(problem, placement, task, timeline)
    want = reference_eft_estimates(problem, placement, task, timeline)
    assert list(got) == list(want)  # same devices, same order
    assert got == want  # == on every float, no tolerance
    assert eft_device(problem, placement, task, timeline) == reference_eft_device(
        problem, placement, task, timeline
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), draw_seed=st.integers(0, 1_000))
def test_kernel_equals_reference_on_random_problems(seed, draw_seed):
    problem = make_problem(seed)
    rng = np.random.default_rng(draw_seed)
    placement = random_placement(problem, rng)
    timeline = simulate(problem.graph, problem.network, placement, problem.cost_model)
    for task in range(problem.graph.num_tasks):
        assert_same_estimates(problem, placement, task, timeline)
    # Without a timeline the kernel simulates one itself, as the reference does.
    assert_same_estimates(problem, placement, int(rng.integers(0, problem.graph.num_tasks)))


def test_co_located_parent_contributes_exactly_its_finish(diamond_problem):
    """A parent on the candidate device pays no communication (``+ 0.0``)."""
    placement = [0, 1, 0, 2]
    timeline = simulate(
        diamond_problem.graph, diamond_problem.network, placement, diamond_problem.cost_model
    )
    assert_same_estimates(diamond_problem, placement, 1, timeline)
    # Task 1's only parent sits on device 0 and task 1 itself does not,
    # so device 0's estimate is the later of the parent's finish and the
    # device's last finish (task 2 runs there after task 0), plus w_{1,0}.
    est = eft_estimates(diamond_problem, placement, 1, timeline)
    assert est[0] == max(
        float(timeline.finish[0]), float(timeline.device_last_finish[0])
    ) + diamond_problem.cost_model.compute_time(1, 0)


def test_own_device_is_credited_with_the_tasks_own_slot(hetero_chain_problem):
    """``min(device_ready, start)``: everything on device 0, so task 2's
    own device is free from task 2's own start, not from its finish."""
    placement = [0, 0, 0]
    timeline = simulate(
        hetero_chain_problem.graph,
        hetero_chain_problem.network,
        placement,
        hetero_chain_problem.cost_model,
    )
    for task in range(3):
        assert_same_estimates(hetero_chain_problem, placement, task, timeline)
    est = eft_estimates(hetero_chain_problem, placement, 2, timeline)
    assert est[0] == float(timeline.start[2]) + hetero_chain_problem.cost_model.compute_time(2, 0)
    assert est[0] == float(timeline.finish[2])


def test_numpy_integer_placements_are_accepted():
    problem = make_problem(11)
    placement = np.array(random_placement(problem, np.random.default_rng(0)), dtype=np.int64)
    for task in range(problem.graph.num_tasks):
        assert_same_estimates(problem, placement, task)


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_search_trace_equals_reference_relocation_loop(seed):
    """The shared relocation loop, replayed step by step with the
    reference device choice, visits the same placements and values."""
    problem = make_problem(seed + 40)
    objective = MakespanObjective()
    initial = random_placement(problem, np.random.default_rng(seed))
    steps = 2 * problem.graph.num_tasks
    trace = RandomTaskEftPolicy().search(
        problem, objective, initial, steps, np.random.default_rng(seed + 1)
    )

    rng = np.random.default_rng(seed + 1)
    evaluator = PlacementEvaluator(problem, objective)
    placement = list(initial)
    values = [evaluator.evaluate(placement)]
    relocations = [0] * problem.graph.num_tasks
    for _ in range(steps):
        task = int(rng.integers(0, problem.graph.num_tasks))
        device = reference_eft_device(problem, placement, task, evaluator.timeline(placement))
        relocations[task] += device != placement[task]
        placement[task] = device
        values.append(evaluator.evaluate(placement))
    assert trace.values == tuple(values)
    assert trace.relocation_counts == tuple(relocations)
    assert trace.best_value == min(values)
