"""The scalar EFT kernel against its reference loop.

``reference_eft_estimates`` is the EFT expression spelled through the
public ``CostModel`` accessors, one ``comm_time`` call per (device,
parent) — the form ``repro.baselines.eft.eft_estimates`` had before it
became a kernel over Python-float rows.  The kernel must return the
same dict, ``==`` on the floats: it performs the same IEEE operations
in the same order.
"""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    RandomTaskEftPolicy,
    TaskEftAgent,
    TaskViewBuilder,
    eft_device,
    eft_estimates,
)
from repro.core.placement import PlacementProblem, random_placement
from repro.core.search import SearchTrace
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.nn import no_grad
from repro.runtime import PlacementEvaluator
from repro.sim.executor import simulate
from repro.sim.objectives import MakespanObjective
from repro.telemetry import metrics


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


def reference_relocation_search(evaluator, initial, steps, pick_task):
    """The relocation loop with no memory of past decisions: the
    evaluator traffic of ``eft_relocation_search`` (score the initial
    placement, then one ``timeline`` and one ``evaluate`` per step) and
    a reference EFT decision at every step."""
    problem = evaluator.problem
    placement = list(problem.validate_placement(initial))
    placements = [tuple(placement)]
    values = [evaluator.evaluate(placement)]
    relocations = [0] * problem.graph.num_tasks
    for _ in range(steps):
        timeline = evaluator.timeline(placement)
        task = pick_task(placement, timeline)
        device = reference_eft_device(problem, placement, task, timeline)
        relocations[task] += device != placement[task]
        placement[task] = device
        placements.append(tuple(placement))
        values.append(evaluator.evaluate(placement))
    return SearchTrace.from_values(placements, values, relocations)


def scalar_draws(rng, num_tasks):
    """The scalar oracle of ``RandomTaskEftPolicy``'s one-call draw."""
    return lambda placement, timeline: int(rng.integers(0, num_tasks))


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
    reference = reference_relocation_search(
        PlacementEvaluator(problem, objective),
        initial,
        steps,
        scalar_draws(np.random.default_rng(seed + 1), problem.graph.num_tasks),
    )
    assert trace == reference
    assert trace.best_value == min(reference.values)


# Decisions remembered on the evaluator's cached timelines.  A session
# re-searches an unchanged problem on every arrival event, from the
# placement the previous search ended on: the second and third search
# meet timelines that already carry decisions.


def assert_warm_searches_equal_reference(problem, seed, search, reference_pick):
    """Three searches in a row on ONE evaluator, each from the previous
    best placement, against the memo-free loop on an evaluator of its
    own: traces and evaluator statistics must agree search by search."""
    objective = MakespanObjective()
    steps = 2 * problem.graph.num_tasks
    warm, cold = PlacementEvaluator(problem, objective), PlacementEvaluator(problem, objective)
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    initial = random_placement(problem, np.random.default_rng(seed + 1))
    for _ in range(3):
        trace = search(problem, objective, initial, steps, rng, evaluator=warm)
        reference = reference_relocation_search(
            cold, initial, steps, reference_pick(problem, reference_rng)
        )
        assert trace == reference
        assert warm.stats.as_dict() == cold.stats.as_dict()
        assert rng.random() == reference_rng.random()
        initial = trace.best_placement
    assert sum(len(t.eft_devices) for t in warm._timelines.values()) > 0
    assert not any(t.eft_devices for t in cold._timelines.values())


@pytest.mark.parametrize("seed", [0, 5, 7, 12])
def test_warm_random_task_eft_searches_equal_the_memo_free_loop(seed):
    problem = make_problem(seed + 40)
    assert_warm_searches_equal_reference(
        problem,
        seed,
        RandomTaskEftPolicy().search,
        lambda problem, rng: scalar_draws(rng, problem.graph.num_tasks),
    )


@pytest.mark.parametrize("seed", [0, 5, 7])
def test_warm_task_eft_agent_searches_equal_the_memo_free_loop(seed):
    problem = make_problem(seed + 40)
    agent = TaskEftAgent(np.random.default_rng(seed + 2))
    twin = TaskEftAgent(np.random.default_rng(seed + 2))  # same weights

    def reference_pick(problem, rng):
        twin.rng = rng
        views = TaskViewBuilder(problem)
        last_task = None

        def pick(placement, timeline):
            nonlocal last_task
            with no_grad():
                last_task, _ = twin.select_task(
                    problem, placement, last_task, timeline=timeline, views=views
                )
            return last_task

        return pick

    assert_warm_searches_equal_reference(problem, seed, agent.search, reference_pick)


def test_remembered_decisions_live_and_die_with_the_cached_timeline():
    """The memo's home is the timeline-LRU entry: bounded by it, and gone
    with it when the LRU evicts it."""
    problem = make_problem(47)
    num_tasks = problem.graph.num_tasks
    objective = MakespanObjective()
    evaluator = PlacementEvaluator(problem, objective, timeline_cache_size=4)
    policy, rng = RandomTaskEftPolicy(), np.random.default_rng(3)
    seen = {}
    for _ in range(200):
        initial = random_placement(problem, rng)
        policy.search(problem, objective, initial, 2 * num_tasks, rng, evaluator=evaluator)
        timelines = evaluator._timelines
        assert len(timelines) <= 4
        remembered = sum(len(t.eft_devices) for t in timelines.values())
        assert 0 < remembered <= len(timelines) * num_tasks
        seen.update((id(t), weakref.ref(t)) for t in timelines.values())
    # Nothing but the LRU holds a timeline (or its decisions) alive.
    alive = [ref() for ref in seen.values() if ref() is not None]
    assert len(seen) > 4 and {id(t) for t in alive} == {id(t) for t in timelines.values()}
    del alive
    kept = [weakref.ref(t) for t in timelines.values()]
    held = set(timelines) | {evaluator._keys.pack(*initial)}
    evicting = {}
    while len(evicting) < 4:  # four fresh placements push out every held entry
        placement = random_placement(problem, rng)
        key = evaluator._keys.pack(*placement)
        if key not in held:
            evicting[key] = placement
    for placement in evicting.values():
        evaluator.timeline(placement)
    assert all(ref() is None for ref in kept)
    fresh = evaluator.timeline(initial)
    assert fresh.eft_devices == {}


def test_search_reports_its_decisions_and_memo_hits():
    """``eft.decisions`` / ``eft.memo_hits``: one increment per search,
    from which a run log gives the repeat share.  Replaying a search on
    the same evaluator repeats every decision."""
    problem = make_problem(45)
    objective = MakespanObjective()
    evaluator = PlacementEvaluator(problem, objective)
    initial = random_placement(problem, np.random.default_rng(0))
    steps = 2 * problem.graph.num_tasks

    def search_delta():
        before = metrics().snapshot()
        RandomTaskEftPolicy().search(
            problem, objective, initial, steps, np.random.default_rng(1), evaluator=evaluator
        )
        return metrics().snapshot().delta(before).counters

    first = search_delta()
    remembered = sum(len(t.eft_devices) for t in evaluator._timelines.values())
    assert first["eft.decisions"] == steps
    assert first.get("eft.memo_hits", 0) == steps - remembered
    assert search_delta() == {"eft.decisions": steps, "eft.memo_hits": steps}
