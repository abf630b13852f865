"""Correctness of the runtime scoring subsystem.

The contract under test: every value produced by the batched/caching
fast path is *bit-identical* to the per-call ``Objective.evaluate`` and
to the reference event loop ``sim.executor.simulate`` (with noise, under
the same seed, leaving the rng in the same state), and the incremental
``GpNetBuilder.update`` equals a full ``build``.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.env import PlacementEnv
from repro.core.features import FeatureConfig, GpNetBuilder
from repro.core.placement import PlacementProblem, random_placement
from repro.devices import Device, DeviceNetwork, DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraph, TaskGraphParams, generate_task_graph
from repro.runtime import EvaluatorPool, EvaluatorStats, FastSimulator, PlacementEvaluator
from repro.sim.executor import SimResult, simulate
from repro.sim.latency import CostModel
from repro.sim.objectives import EnergyObjective, MakespanObjective, TotalCostObjective


def make_problem(seed: int) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    graph = generate_task_graph(
        TaskGraphParams(
            num_tasks=int(rng.integers(3, 18)),
            connect_prob=float(rng.uniform(0.1, 0.6)),
        ),
        rng,
    )
    network = generate_device_network(
        DeviceNetworkParams(num_devices=int(rng.integers(2, 8))), rng
    )
    return PlacementProblem(graph, network)


def cached(evaluator, lru):
    """The placements ``lru`` (one of ``evaluator``'s caches) holds, in LRU
    order, unpacked from their keys to int tuples."""
    assert all(type(key) is bytes for key in lru)
    return [evaluator._keys.unpack(key) for key in lru]


# -- fast simulator ---------------------------------------------------------------------


def assert_same_timeline(got, expected):
    """``==`` on every compared field of two ``SimResult``s (the
    generated ``__eq__`` cannot: it would truth-test whole arrays)."""
    compared = [f.name for f in dataclasses.fields(SimResult) if f.compare]
    assert compared == [
        "makespan", "start", "finish", "device_last_finish", "placement"
    ]
    for name in compared:
        a, b = getattr(got, name), getattr(expected, name)
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, name


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_fast_simulator_matches_executor_exactly(seed):
    problem = make_problem(seed)
    rng = np.random.default_rng(seed + 1)
    sim = FastSimulator(problem)
    for _ in range(3):
        placement = random_placement(problem, rng)
        exact = simulate(problem.graph, problem.network, placement, problem.cost_model)
        fast = sim.run(placement)
        assert_same_timeline(fast, exact)


def test_remembered_eft_decisions_are_not_part_of_the_timeline():
    """``SimResult.eft_devices`` is a memo riding on the timeline: field
    comparison, ``repr``, pickling and copying all leave it out."""
    problem = make_problem(3)
    placement = random_placement(problem, np.random.default_rng(0))
    exact = simulate(problem.graph, problem.network, placement, problem.cost_model)
    fast = FastSimulator(problem).run(placement)
    assert fast.eft_devices == exact.eft_devices == {}
    fast.eft_devices[0] = placement[0]
    assert_same_timeline(fast, exact)
    assert "eft_devices" not in repr(fast)
    for clone in (pickle.loads(pickle.dumps(fast)), copy.copy(fast)):
        assert clone.eft_devices == {}
        assert_same_timeline(clone, fast)
    assert fast.eft_devices == {0: placement[0]}


def test_fast_simulator_batch_costs_match_cost_model():
    problem = make_problem(3)
    cm = problem.cost_model
    rng = np.random.default_rng(0)
    sim = FastSimulator(problem)
    placements = [random_placement(problem, rng) for _ in range(4)]
    compute, comm = sim.batch_costs(np.array(placements))
    for b, placement in enumerate(placements):
        for i in range(problem.graph.num_tasks):
            assert compute[b, i] == cm.compute_time(i, placement[i])
        for k, edge in enumerate(problem.graph.edges):
            u, v = edge
            assert comm[b, k] == cm.comm_time(edge, placement[u], placement[v])


def test_fast_simulator_rejects_infeasible_placement():
    problem = make_problem(5)
    sim = FastSimulator(problem)
    bad = [problem.network.num_devices + 3] * problem.graph.num_tasks
    with pytest.raises(ValueError):
        sim.run(bad)


# The bitwise contract of the shared walk.  FastSimulator folds each
# task's per-edge arrival events into one ready event; every timeline
# field must still *equal* the exact simulator's, ties included.


def layout_problem(seed, num_tasks, num_devices, edge_prob, tie_heavy=False):
    """A random DAG on a random network (hardware type 1 lives on device
    0 only).  ``tie_heavy`` forces compute times into {0, 1, 2}, delays
    into {0, 1} and drops the bandwidth term, so zero-length tasks,
    co-located zero-delay children and simultaneous finishes all occur
    and the (time, sequence) tie-break decides the schedule."""
    rng = np.random.default_rng(seed)
    pairs = [
        (i, j)
        for i in range(num_tasks)
        for j in range(i + 1, num_tasks)
        if rng.random() < edge_prob
    ]
    # Shuffled insertion order: an edge's index in ``graph.edges`` (the
    # column its delay sits in) says nothing about its endpoints.
    rng.shuffle(pairs)
    graph = TaskGraph(
        compute=tuple(rng.uniform(1.0, 10.0, num_tasks)),
        edges={(int(i), int(j)): float(rng.uniform(1.0, 50.0)) for i, j in pairs},
        requirements=tuple(int(r) for r in rng.integers(0, 2, num_tasks)),
    )
    devices = [
        Device(uid=k, speed=float(rng.uniform(0.5, 4.0)), supports=frozenset({0, 1} if k == 0 else {0}))
        for k in range(num_devices)
    ]
    shape = (num_devices, num_devices)
    if tie_heavy:
        bandwidth = np.full(shape, np.inf)
        delay = rng.integers(0, 2, shape).astype(np.float64)
    else:
        bandwidth = rng.uniform(1.0, 20.0, shape)
        delay = rng.uniform(0.0, 2.0, shape)
    np.fill_diagonal(bandwidth, np.inf)
    np.fill_diagonal(delay, 0.0)
    network = DeviceNetwork(devices, bandwidth, delay)
    if not tie_heavy:
        return PlacementProblem(graph, network)
    compute_matrix = rng.integers(0, 3, (num_tasks, num_devices)).astype(np.float64)
    return PlacementProblem(graph, network, CostModel(graph, network, compute_matrix))


def assert_walk_equals_executor(problem, seed, count=4, sim=None):
    """``run`` equals the executor field for field (``finish`` and
    ``device_last_finish``, which it derives after the walk, included);
    ``makespans`` of a batch with duplicated rows equals both ``run``'s
    and the executor's makespans bit for bit.  With noise, ``makespans``
    and a noisy ``MakespanObjective`` equal the executor under the same
    seed, and leave the rng where the executor leaves it."""
    rng = np.random.default_rng(seed)
    sim = FastSimulator(problem) if sim is None else sim
    placements = [random_placement(problem, rng) for _ in range(count)]
    placements += placements[:2]  # rows duplicated within one batch
    runs, exact = [], []
    for placement in placements:
        exact.append(simulate(problem.graph, problem.network, placement, problem.cost_model))
        runs.append(sim.run(placement))
        assert_same_timeline(runs[-1], exact[-1])
    bits = np.array(sim.makespans(np.array(placements))).tobytes()
    assert bits == np.array([r.makespan for r in runs]).tobytes()
    assert bits == np.array([e.makespan for e in exact]).tobytes()

    for noise in NOISE_LEVELS:
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        want = [
            simulate(problem.graph, problem.network, p, problem.cost_model, noise, rngs[0]).makespan
            for p in placements
        ]
        got = sim.makespans(np.array(placements), noise, rngs[1])
        assert np.array(got).tobytes() == np.array(want).tobytes()
        objective = MakespanObjective(noise, rngs[2])
        got = [objective.evaluate(problem.cost_model, p) for p in placements]
        assert np.array(got).tobytes() == np.array(want).tobytes()
        states = [rng.bit_generator.state for rng in rngs]
        assert states[1] == states[0] and states[2] == states[0]


NOISE_LEVELS = (0.2, 0.5)


def test_noisy_makespans_require_an_rng():
    """``makespans(noise > 0)`` without an rng raises what ``simulate`` raises;
    ``CostModel.realize`` would return the expectations, noise-free."""
    problem = make_problem(3)
    placement = random_placement(problem, np.random.default_rng(0))
    sim = FastSimulator(problem)
    with pytest.raises(ValueError, match="noise > 0 requires an rng") as raised:
        sim.makespans([placement], 0.2)
    with pytest.raises(ValueError, match=str(raised.value)):
        simulate(problem.graph, problem.network, placement, problem.cost_model, 0.2)
    assert sim.makespans([placement], 0.0) == [sim.run(placement).makespan]

layouts = given(
    seed=st.integers(0, 2**31),
    num_tasks=st.integers(1, 14),
    num_devices=st.integers(1, 5),
    edge_prob=st.sampled_from([0.0, 0.15, 0.4, 1.0]),
)


@settings(max_examples=60, deadline=None)
@layouts
@example(seed=0, num_tasks=1, num_devices=1, edge_prob=1.0)  # single task, single device
@example(seed=1, num_tasks=6, num_devices=3, edge_prob=0.0)  # edgeless: every task an entry
@example(seed=2, num_tasks=14, num_devices=1, edge_prob=1.0)  # one device queues everything
def test_walk_equals_executor_on_generated_problems(seed, num_tasks, num_devices, edge_prob):
    problem = layout_problem(seed, num_tasks, num_devices, edge_prob)
    assert_walk_equals_executor(problem, seed + 1)


@settings(max_examples=150, deadline=None)
@layouts
@example(seed=3, num_tasks=9, num_devices=2, edge_prob=1.0)
def test_walk_equals_executor_when_ties_decide(seed, num_tasks, num_devices, edge_prob):
    """Fails if, of two inputs landing together, the walk keeps the
    earlier-sent one as the task's ready key."""
    problem = layout_problem(seed, num_tasks, num_devices, edge_prob, tie_heavy=True)
    assert_walk_equals_executor(problem, seed + 1)


@settings(max_examples=60, deadline=None)
@layouts
@example(seed=4, num_tasks=1, num_devices=3, edge_prob=0.0)  # one task, two idle devices
def test_walk_equals_executor_on_edge_cases(seed, num_tasks, num_devices, edge_prob):
    """Zero compute times (``finish == start``), devices that run nothing
    (``device_last_finish`` 0.0), and a simulator rebound from another
    network, whose flat cost tables must be the new network's."""
    problem = layout_problem(seed, num_tasks, num_devices, edge_prob, tie_heavy=True)
    graph, network = problem.graph, problem.network
    zero = PlacementProblem(
        graph, network, CostModel(graph, network, np.zeros((num_tasks, num_devices)))
    )
    assert_walk_equals_executor(zero, seed + 1)
    timeline = FastSimulator(zero).run(random_placement(zero, np.random.default_rng(seed)))
    assert np.array_equal(timeline.finish, timeline.start)

    on_first = (0,) * num_tasks  # device 0 hosts every hardware type
    timeline = FastSimulator(problem).run(on_first)
    assert_same_timeline(timeline, simulate(graph, network, on_first, problem.cost_model))
    assert timeline.device_last_finish[1:].tolist() == [0.0] * (num_devices - 1)

    if num_devices > 1:
        moved = network.without_device(network.devices[-1].uid)
    else:
        moved = network.with_device_speed(network.devices[0].uid, 2.0)
    moved = PlacementProblem(graph, moved)
    assert_walk_equals_executor(moved, seed + 2, sim=FastSimulator(problem).rebind(moved))


def test_walk_sequences_every_edge_even_a_folded_one():
    """Entries 0, 1, 2 finish together at t=1 on three devices.  Task 4's
    latest input is 0's send (landing t=2), task 3's is 1's send (also
    t=2, sequenced after it); both are *released* by co-located task 2's
    zero-delay sends, which land first.  So both ready events fire at
    t=2 with the keys of two sends that never became heap events on
    their own, and 4 runs before 3.  A walk that numbers only the events
    it pushes gives both the same number and runs 3 first."""
    graph = TaskGraph(
        compute=(1.0,) * 5,
        edges={(0, 4): 1.0, (1, 3): 1.0, (2, 3): 1.0, (2, 4): 1.0},
        requirements=(0,) * 5,
    )
    devices = [Device(uid=k, speed=1.0, supports=frozenset({0})) for k in range(3)]
    bandwidth = np.full((3, 3), np.inf)
    delay = np.ones((3, 3)) - np.eye(3)
    network = DeviceNetwork(devices, bandwidth, delay)
    problem = PlacementProblem(graph, network)
    placement = (0, 1, 2, 2, 2)
    exact = simulate(graph, network, placement, problem.cost_model)
    assert exact.start.tolist() == [0.0, 0.0, 0.0, 3.0, 2.0]
    sim = FastSimulator(problem)
    fast = sim.run(placement)
    assert fast.start.tolist() == exact.start.tolist()
    assert fast.finish.tolist() == exact.finish.tolist()
    assert sim.makespans([placement]) == [exact.makespan]


def test_walk_names_the_tasks_that_never_ran():
    problem = make_problem(3)
    rng = np.random.default_rng(0)
    placement = random_placement(problem, rng)
    sim = FastSimulator(problem)
    last = problem.graph.num_tasks - 1  # the generator's single exit task
    # One input more than the graph will ever deliver.
    sim._num_parents = sim._num_parents[:last] + (sim._num_parents[last] + 1,)
    for call in (sim.run, lambda p: sim.makespans([p])):
        with pytest.raises(RuntimeError, match=rf"simulation deadlock: tasks \[{last}\] never ran"):
            call(placement)


def test_makespans_input_forms():
    problem = make_problem(3)
    rng = np.random.default_rng(0)
    sim = FastSimulator(problem)
    placements = [random_placement(problem, rng) for _ in range(3)]
    expected = [sim.run(p).makespan for p in placements]
    assert all(type(d) is int for p in placements for d in p)
    assert sim.makespans(placements) == expected
    assert sim.makespans([[np.int64(d) for d in p] for p in placements]) == expected
    assert sim.makespans(np.array(placements[1])) == [expected[1]]  # one 1-D placement
    got = sim.makespans(np.array(placements))
    assert all(type(value) is float for value in got)
    assert sim.makespans(np.empty((0, problem.graph.num_tasks), dtype=np.int64)) == []


# -- evaluator scoring ------------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_evaluate_many_bit_identical_to_objective_loop(seed):
    problem = make_problem(seed)
    rng = np.random.default_rng(seed + 2)
    objective = MakespanObjective()
    evaluator = PlacementEvaluator(problem, objective)
    placements = [random_placement(problem, rng) for _ in range(6)]
    placements += placements[:3]  # duplicates exercise the cache
    expected = np.array(
        [objective.evaluate(problem.cost_model, p) for p in placements]
    )
    got = evaluator.evaluate_many(placements)
    assert (got == expected).all()
    # Singles agree with the batch (and hit the now-warm cache).
    for p, want in zip(placements, expected):
        assert evaluator.evaluate(p) == want
    assert evaluator.stats.cache_hits > 0


def test_evaluator_deterministic_objectives_cache():
    problem = make_problem(11)
    rng = np.random.default_rng(1)
    placement = random_placement(problem, rng)
    for objective in (MakespanObjective(), TotalCostObjective(), EnergyObjective()):
        evaluator = PlacementEvaluator(problem, objective)
        first = evaluator.evaluate(placement)
        second = evaluator.evaluate(placement)
        assert first == second == objective.evaluate(problem.cost_model, placement)
        assert evaluator.stats.cache_hits == 1
        assert evaluator.stats.cache_misses == 1


def test_evaluator_noisy_objective_bypasses_cache():
    problem = make_problem(13)
    rng = np.random.default_rng(2)
    placement = random_placement(problem, rng)
    noisy = MakespanObjective(noise=0.3, rng=np.random.default_rng(42))
    reference = MakespanObjective(noise=0.3, rng=np.random.default_rng(42))
    assert not noisy.deterministic
    evaluator = PlacementEvaluator(problem, noisy)
    values = [evaluator.evaluate(placement) for _ in range(4)]
    expected = [reference.evaluate(problem.cost_model, placement) for _ in range(4)]
    assert values == expected  # same rng stream as the direct path
    assert len(set(values)) > 1  # noise resampled per call, not cached
    assert evaluator.stats.cache_hits == 0
    # the batch API walks the same per-call path in order
    noisy2 = MakespanObjective(noise=0.3, rng=np.random.default_rng(42))
    batch = PlacementEvaluator(problem, noisy2).evaluate_many([placement] * 4)
    assert batch.tolist() == expected


def test_evaluator_timeline_cached_and_exact():
    problem = make_problem(17)
    rng = np.random.default_rng(3)
    placement = random_placement(problem, rng)
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    t1 = evaluator.timeline(placement)
    t2 = evaluator.timeline(placement)
    assert t1 is t2
    exact = simulate(problem.graph, problem.network, placement, problem.cost_model)
    assert t1.makespan == exact.makespan
    assert evaluator.stats.timeline_hits == 1


def test_evaluator_lru_eviction_and_validation():
    problem = make_problem(19)
    rng = np.random.default_rng(4)
    evaluator = PlacementEvaluator(problem, MakespanObjective(), cache_size=2)
    a, b, c = (random_placement(problem, rng) for _ in range(3))
    evaluator.evaluate(a)
    evaluator.evaluate(b)
    evaluator.evaluate(c)  # evicts a
    evaluator.evaluate(a)
    assert evaluator.stats.cache_misses == 4
    with pytest.raises(ValueError):
        evaluator.evaluate([0] * (problem.graph.num_tasks + 1))
    with pytest.raises(ValueError):
        PlacementEvaluator(problem, MakespanObjective(), cache_size=0)
    assert len(evaluator.evaluate_many([])) == 0


def test_evaluate_many_accounting_is_pinned():
    """One warm-cache batch mixing hits, fresh misses and within-batch
    repeats, against an LRU small enough to evict mid-batch.  The counters
    and the LRU order were recorded at the commit before ``evaluate_many``
    moved from ``FastSimulator.run`` per miss to one ``makespans`` call:
    the batch entry changed what a miss costs, not what is counted,
    cached or evicted."""
    problem = make_problem(7)
    rng = np.random.default_rng(5)
    pool = list(dict.fromkeys(random_placement(problem, rng) for _ in range(14)))
    evaluator = PlacementEvaluator(problem, MakespanObjective(), cache_size=8)
    for placement in pool[:3]:
        evaluator.evaluate(placement)
    evaluator.evaluate_many(pool[3:6])
    evaluator.timeline(pool[6])
    timelines_before = cached(evaluator, evaluator._timelines)

    # cached: 0 4 2 5 — fresh: 7 8 9 10 — repeated within the batch: 7 8 8
    batch = [pool[i] for i in (0, 7, 4, 8, 7, 2, 9, 8, 8, 5, 10)]
    got = evaluator.evaluate_many(batch)

    twin = PlacementEvaluator(problem, MakespanObjective())
    assert got.tolist() == [twin.evaluate(p) for p in batch]
    assert evaluator.stats.as_dict() == dict(
        evaluations=17, cache_hits=7, cache_misses=10, hit_rate=7 / 17,
        fast_path=10, exact_path=0, batch_calls=2,
        timeline_hits=0, timeline_misses=4,
    )
    assert cached(evaluator, evaluator._timelines) == timelines_before  # batches cache scalars only
    assert [pool.index(key) for key in cached(evaluator, evaluator._values)] == [0, 4, 2, 5, 7, 8, 9, 10]


def test_stats_algebra_covers_every_field():
    """merge, delta and counters walk one tuple of names: it names every
    field, and as_dict adds only the derived hit rate."""
    names = [f.name for f in dataclasses.fields(EvaluatorStats)]
    a = EvaluatorStats(*range(1, len(names) + 1))
    b = EvaluatorStats(*range(10, 10 + len(names)))
    total = EvaluatorStats().merge(a).merge(b)
    assert total.counters() == {n: getattr(a, n) + getattr(b, n) for n in names}
    assert total.delta(a) == b
    assert a.as_dict() == {**a.counters(), "hit_rate": a.hit_rate}


def _cache_state(evaluator):
    return (
        evaluator.stats.as_dict(),
        list(zip(cached(evaluator, evaluator._values), evaluator._values.values())),
        cached(evaluator, evaluator._timelines),
    )


@pytest.mark.parametrize(
    "objective",
    [
        MakespanObjective(),
        TotalCostObjective(),
        MakespanObjective(noise=0.3, rng=np.random.default_rng(42)),  # never cached
    ],
    ids=["makespan", "total-cost", "noisy-makespan"],
)
def test_uncached_bad_placement_raises_and_leaves_no_trace(objective):
    """The cache lookup runs before validation, so a miss must still be
    validated exactly as before: same ValueError, nothing counted,
    nothing stored — on every entry point, warm caches or cold."""
    problem = make_problem(19)
    n = problem.graph.num_tasks
    good = random_placement(problem, np.random.default_rng(4))
    infeasible = [problem.network.num_devices + 3] * n
    wrong_length = list(good) + [good[0]]
    evaluator = PlacementEvaluator(problem, objective)
    for warm in (False, True):
        if warm:
            evaluator.evaluate(good)
            evaluator.timeline(good)
        before = _cache_state(evaluator)
        for call in (
            evaluator.evaluate,
            evaluator.timeline,
            lambda p: evaluator.evaluate_many([good, p, good]),
        ):
            with pytest.raises(ValueError, match="infeasible device index"):
                call(infeasible)
            with pytest.raises(ValueError, match=f"placement length {n + 1} != {n} tasks"):
                call(wrong_length)
            # evaluate_many rejects the whole batch before counting anything
            assert _cache_state(evaluator) == before


def test_a_miss_validates_its_placement_once(monkeypatch):
    """``evaluate`` → ``_compute`` → timeline used to validate the key twice."""
    problem = make_problem(17)
    rng = np.random.default_rng(3)
    calls = []
    validate = PlacementProblem.validate_placement
    validate_many = PlacementProblem.validate_many
    monkeypatch.setattr(
        PlacementProblem,
        "validate_placement",
        lambda self, p: calls.append(tuple(p)) or validate(self, p),
    )
    # The batch check's inputs count too (a batch it checked placement
    # by placement would show every miss twice).
    monkeypatch.setattr(
        PlacementProblem,
        "validate_many",
        lambda self, ps: calls.extend(map(tuple, ps)) or validate_many(self, ps),
    )
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    a, b, c = (random_placement(problem, rng) for _ in range(3))
    evaluator.evaluate(a)  # value miss + timeline miss
    assert calls == [a]
    evaluator.evaluate(a)
    evaluator.timeline(a)  # hits: the lookup is the proof
    assert calls == [a]
    evaluator.timeline(b)  # timeline miss only
    evaluator.evaluate(b)  # value miss, timeline hit: the timeline's key is the proof
    assert calls == [a, b]
    evaluator.evaluate_many([c, c, a])  # one validation per raw miss, as before
    assert calls == [a, b, c, c]
    stats = evaluator.stats  # report bytes: the counters did not move
    assert (stats.evaluations, stats.cache_hits, stats.cache_misses) == (6, 3, 3)
    assert (stats.fast_path, stats.exact_path, stats.batch_calls) == (3, 0, 1)
    assert (stats.timeline_hits, stats.timeline_misses) == (2, 2)


def test_validate_placement_refuses_what_int_would_coerce():
    """``int(0.9)`` is 0 and ``int("1")`` is 1: a placement of either used
    to be scored as some other placement."""
    problem = make_problem(17)
    placement = random_placement(problem, np.random.default_rng(3))
    with pytest.raises(ValueError, match="task 0: device index must be an int, not 0.9"):
        problem.validate_placement([0.9, *placement[1:]])
    with pytest.raises(ValueError, match="task 1: device index must be an int, not '1'"):
        problem.validate_placement([placement[0], "1", *placement[2:]])
    with pytest.raises(ValueError, match="task 0"):
        PlacementEvaluator(problem, MakespanObjective()).evaluate([float(placement[0])])
    validated = problem.validate_placement(np.array(placement))  # NumPy ints are indices
    assert validated == placement and all(type(d) is int for d in validated)


def _constrained_problem() -> PlacementProblem:
    """Six tasks on five devices, most tasks with devices they cannot use."""
    rng = np.random.default_rng(8)
    graph = generate_task_graph(TaskGraphParams(num_tasks=6, constraint_prob=0.8), rng)
    network = generate_device_network(DeviceNetworkParams(num_devices=5), rng)
    return PlacementProblem(graph, network)


BATCH_PROBLEM = _constrained_problem()


@st.composite
def placement_batches(draw):
    """Batches of feasible rows, some with entries or lengths corrupted."""
    problem = BATCH_PROBLEM
    devices = problem.network.num_devices
    feasible = problem.feasible_sets
    batch = []
    for _ in range(draw(st.integers(0, 5))):
        clean = [draw(st.sampled_from(f)) for f in feasible]
        row = list(clean)
        for i in draw(st.lists(st.integers(0, len(row) - 1), max_size=2)):
            infeasible = [d for d in range(devices) if d not in feasible[i]]
            row[i] = draw(st.one_of(
                st.integers(-3, -1),
                st.integers(devices, devices + 2),
                st.sampled_from(infeasible or [devices]),
                st.just(float(clean[i])),
                st.booleans(),
                st.just(np.int64(clean[i])),
                st.just(np.True_),
                st.sampled_from([2**63, 2**64]),
            ))
        length = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))  # ragged batches, too
        row = row[: len(row) + length] if length < 0 else row + row[:length]
        batch.append(draw(st.sampled_from([tuple, list]))(row))
    return batch


@settings(max_examples=300, deadline=None)
@given(batch=placement_batches())
@example(batch=[])
def test_validate_many_is_the_per_placement_loop(batch):
    """Same keys (exact ints) and int64 rows, or the same first ValueError."""
    problem = BATCH_PROBLEM
    try:
        expected = [problem.validate_placement(p) for p in batch]
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            problem.validate_many(batch)
        assert str(raised.value) == str(error)
        return
    keys, rows = problem.validate_many(batch)
    assert keys == expected
    assert all(type(d) is int for key in keys for d in key)
    assert rows.dtype == np.int64 and rows.shape == (len(batch), problem.graph.num_tasks)
    assert rows.tolist() == [list(key) for key in keys]
    if all(type(p) is tuple and all(type(d) is int for d in p) for p in batch):
        # the array check: exact-int tuples come back as the keys themselves
        assert all(key is p for key, p in zip(keys, batch))


def test_numpy_integer_placement_hits_the_int_tuple_entry():
    problem = make_problem(17)
    placement = random_placement(problem, np.random.default_rng(3))
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    value = evaluator.evaluate(placement)
    timeline = evaluator.timeline(placement)
    as_numpy = [np.int64(d) for d in placement]
    assert evaluator.evaluate(as_numpy) == value
    assert evaluator.evaluate(np.array(placement)) == value
    assert evaluator.timeline(as_numpy) is timeline
    assert evaluator.evaluate_many([as_numpy])[0] == value
    assert evaluator.stats.cache_misses == 1 and evaluator.stats.cache_hits == 3
    assert evaluator.stats.timeline_misses == 1 and evaluator.stats.timeline_hits == 2
    # Only the validated int tuple's bytes are ever a key: one placement, one key.
    assert list(evaluator._values) == [evaluator._keys.pack(*placement)]
    assert cached(evaluator, evaluator._values) == [placement]
    assert cached(evaluator, evaluator._timelines) == [placement]


# -- the repeat path ----------------------------------------------------------------------

_CALLS = st.one_of(
    st.tuples(st.sampled_from(["evaluate", "timeline"]), st.integers(0, 3)),
    st.tuples(st.just("evaluate_many"), st.lists(st.integers(0, 3), max_size=3)),
)

_OBJECTIVES = {
    "makespan": MakespanObjective,
    "total-cost": TotalCostObjective,
    "noisy": lambda: MakespanObjective(noise=0.3, rng=np.random.default_rng(7)),
}


def _call(evaluator, name, arg, get):
    if name == "evaluate":
        return evaluator.evaluate(get(arg))
    if name == "timeline":
        timeline = evaluator.timeline(get(arg))
        return timeline.makespan, timeline.start.tobytes(), timeline.finish.tobytes()
    return evaluator.evaluate_many([get(i) for i in arg]).tolist()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 40),
    objective=st.sampled_from(sorted(_OBJECTIVES)),
    calls=st.lists(_CALLS, min_size=8, max_size=30),
)
def test_repeat_path_is_invisible(seed, objective, calls):
    """Handing the evaluator the same tuple objects again (the repeat
    path) or fresh equal copies of them gives the same values, counters
    and LRU order after every call, with caches small enough to evict."""
    problem = make_problem(seed)
    rng = np.random.default_rng(seed)
    pool = [random_placement(problem, rng) for _ in range(4)]

    def make():
        return PlacementEvaluator(
            problem, _OBJECTIVES[objective](), cache_size=3, timeline_cache_size=2
        )

    reuse, fresh = make(), make()
    for name, arg in calls:
        got = _call(reuse, name, arg, pool.__getitem__)
        assert got == _call(fresh, name, arg, lambda i: tuple(list(pool[i])))
        assert reuse.stats == fresh.stats
        assert cached(reuse, reuse._values) == cached(fresh, fresh._values)
        assert cached(reuse, reuse._timelines) == cached(fresh, fresh._timelines)


def test_a_repeat_looks_nothing_up(monkeypatch):
    problem = make_problem(17)
    placement = random_placement(problem, np.random.default_rng(3))
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    value, timeline = evaluator.evaluate(placement), evaluator.timeline(placement)
    monkeypatch.setattr(evaluator, "_lookup", None)  # any lookup would raise
    assert evaluator.evaluate(placement) == value
    assert evaluator.timeline(placement) is timeline
    assert evaluator.stats.cache_hits == 1 and evaluator.stats.timeline_hits == 2
    with pytest.raises(TypeError):
        evaluator.evaluate(tuple(list(placement)))  # an equal copy is looked up


def test_a_list_changed_in_place_is_never_served_stale():
    problem = make_problem(11)
    rng = np.random.default_rng(1)
    a, b = random_placement(problem, rng), random_placement(problem, rng)
    assert a != b
    twin = PlacementEvaluator(problem, MakespanObjective())
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    placement = list(a)
    assert evaluator.evaluate(placement) == twin.evaluate(a)
    assert evaluator.timeline(placement).makespan == twin.timeline(a).makespan
    placement[:] = b
    assert evaluator.evaluate(placement) == twin.evaluate(b)
    assert evaluator.timeline(placement).makespan == twin.timeline(b).makespan
    with pytest.raises(TypeError):
        evaluator.timeline(None)  # the empty repeat entry is not None


def test_task_eft_search_counters_are_pinned():
    """Where a seeded task-EFT search's lookups are served from — recorded
    before the lookup moved ahead of validation, so the hit path changed
    what a hit costs, not what counts as one."""
    from repro.baselines import RandomTaskEftPolicy

    expected = {
        3: dict(evaluations=61, cache_hits=54, cache_misses=7, fast_path=7,
                timeline_hits=60, timeline_misses=7),
        29: dict(evaluations=69, cache_hits=57, cache_misses=12, fast_path=12,
                 timeline_hits=68, timeline_misses=12),
    }
    for seed, counters in expected.items():
        problem = make_problem(seed)
        objective = MakespanObjective()
        evaluator = PlacementEvaluator(problem, objective)
        RandomTaskEftPolicy().search(
            problem,
            objective,
            random_placement(problem, np.random.default_rng(0)),
            4 * problem.graph.num_tasks,
            np.random.default_rng(1),
            evaluator=evaluator,
        )
        stats = evaluator.stats.as_dict()
        assert {name: stats[name] for name in counters} == counters
        assert stats["exact_path"] == 0 and stats["batch_calls"] == 0


def test_evaluator_does_not_fast_path_makespan_subclasses():
    """A deterministic MakespanObjective subclass with an overridden
    evaluate() must score through its own evaluate, not the plain-makespan
    timeline fast path (which would silently drop the override)."""

    class PenalizedMakespan(MakespanObjective):
        def evaluate(self, cost_model, placement):
            return super().evaluate(cost_model, placement) + 1000.0

    problem = make_problem(37)
    rng = np.random.default_rng(9)
    placement = random_placement(problem, rng)
    objective = PenalizedMakespan()
    evaluator = PlacementEvaluator(problem, objective)
    expected = objective.evaluate(problem.cost_model, placement)
    assert evaluator.evaluate(placement) == expected
    assert evaluator.evaluate_many([placement])[0] == expected
    assert evaluator.evaluate(placement) == expected  # cached, still penalized
    assert evaluator.stats.fast_path == 0


def test_evaluator_pool_identity_eviction_and_stats():
    objective = MakespanObjective()
    problems = [make_problem(40 + k) for k in range(3)]
    rng = np.random.default_rng(8)
    pool = EvaluatorPool(objective, max_problems=2)
    first = pool.get(problems[0])
    assert pool.get(problems[0]) is first
    first.evaluate(random_placement(problems[0], rng))
    pool.get(problems[1])
    pool.get(problems[2])  # evicts problems[0]'s evaluator...
    assert list(pool._by_problem) == [id(problems[1]), id(problems[2])]
    assert pool.get(problems[0]) is not first  # ...which restarts cold
    assert pool.stats().evaluations == 1  # evicted counters are retained
    with pytest.raises(ValueError):
        EvaluatorPool(objective, max_problems=0)


def test_retire_folds_stats_and_seats_a_rebound_successor():
    """A network event's retire: the old evaluator leaves the pool as an
    LRU eviction would; its successor scores the new network exactly as a
    cold evaluator does, counters and all."""
    objective = MakespanObjective()
    problem = make_problem(41)
    moved = PlacementProblem(problem.graph, problem.network.with_bandwidth_scaled(0.5))
    evicted = []
    pool = EvaluatorPool(objective, on_evict=lambda pid, ev: evicted.append((pid, ev)))
    old = pool.get(problem)
    rng = np.random.default_rng(2)
    placements = [random_placement(problem, rng) for _ in range(6)]
    for placement in placements:
        old.evaluate(placement)
    pool.retire(problem, moved)
    assert evicted == [(id(problem), old)]
    assert list(pool._by_problem) == [id(moved)]
    assert pool.stats() == old.stats  # folded, not lost
    successor = pool.get(moved)
    assert successor is not old and successor.stats == EvaluatorStats()
    cold = PlacementEvaluator(moved, objective)
    for placement in placements + placements[:2]:
        assert successor.evaluate(placement) == cold.evaluate(placement)
        assert_same_timeline(successor.timeline(placement), cold.timeline(placement))
    assert successor.stats == cold.stats
    pool.retire(problem, moved)  # no longer held: retires nothing
    assert pool.get(moved) is successor and len(evicted) == 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), remove=st.booleans())
def test_rebound_simulator_equals_a_fresh_one(seed, remove):
    """``FastSimulator.rebind`` onto another network — fewer devices, or
    the same ones slower and on thinner links — simulates like a fresh
    simulator and like the executor."""
    problem = make_problem(seed)
    network = problem.network
    if remove and network.num_devices > 1:
        network = network.without_device(network.devices[0].uid)
    else:
        network = network.with_bandwidth_scaled(0.3).with_device_speed(
            network.devices[-1].uid, network.devices[-1].speed / 2
        )
    try:
        moved = PlacementProblem(problem.graph, network)
    except ValueError:  # the removed device was some task's only host
        return
    rebound = FastSimulator(problem).rebind(moved)
    fresh = FastSimulator(moved)
    rng = np.random.default_rng(seed)
    placements = [random_placement(moved, rng) for _ in range(4)]
    for placement in placements:
        exact = simulate(moved.graph, moved.network, placement, moved.cost_model)
        assert_same_timeline(rebound.run(placement), exact)
        assert_same_timeline(rebound.run(placement), fresh.run(placement))
    assert rebound.makespans(np.array(placements)) == fresh.makespans(np.array(placements))


def test_rebind_refuses_another_graph():
    with pytest.raises(ValueError, match="same task graph"):
        FastSimulator(make_problem(1)).rebind(make_problem(2))


# -- incremental gpNet updates ----------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), potential=st.booleans())
def test_gpnet_update_equals_full_build(seed, potential):
    problem = make_problem(seed)
    rng = np.random.default_rng(seed + 3)
    config = FeatureConfig(use_start_time_potential=potential)
    incremental = GpNetBuilder(problem, config)
    reference = GpNetBuilder(problem, config)
    placement = list(random_placement(problem, rng))
    current = incremental.build(placement)
    for _ in range(8):
        task = int(rng.integers(0, problem.graph.num_tasks))
        placement[task] = int(rng.choice(list(problem.feasible_sets[task])))
        current = incremental.update(current, tuple(placement), task)
        fresh = reference.build(tuple(placement))
        assert current.placement == fresh.placement
        for name in (
            "task_of",
            "device_of",
            "is_pivot",
            "edge_src",
            "edge_dst",
            "node_features",
            "edge_features",
        ):
            assert (getattr(current, name) == getattr(fresh, name)).all(), name
        assert all((x == y).all() for x, y in zip(current.options, fresh.options))


def test_gpnet_update_falls_back_without_raw_state():
    problem = make_problem(23)
    rng = np.random.default_rng(5)
    builder = GpNetBuilder(problem)
    p1 = list(random_placement(problem, rng))
    net1 = builder.build(p1)
    # Build a different placement in between: the raw cache no longer
    # matches net1, so update must fall back to a full rebuild.
    p2 = list(random_placement(problem, rng))
    builder.build(p2)
    task = int(rng.integers(0, problem.graph.num_tasks))
    p1[task] = int(rng.choice(list(problem.feasible_sets[task])))
    updated = builder.update(net1, tuple(p1), task)
    fresh = GpNetBuilder(problem).build(tuple(p1))
    assert (updated.node_features == fresh.node_features).all()
    assert (updated.edge_features == fresh.edge_features).all()


def test_gpnet_update_noop_returns_previous():
    problem = make_problem(29)
    rng = np.random.default_rng(6)
    builder = GpNetBuilder(problem)
    placement = random_placement(problem, rng)
    net = builder.build(placement)
    assert builder.update(net, placement, moved_task=0) is net


# -- env integration --------------------------------------------------------------------


def test_env_shared_evaluator_and_binding_checks():
    problem = make_problem(31)
    objective = MakespanObjective()
    evaluator = PlacementEvaluator(problem, objective)
    rng = np.random.default_rng(7)
    env = PlacementEnv(problem, objective, evaluator=evaluator)
    state = env.reset(rng=rng)
    exact = objective.evaluate(problem.cost_model, state.placement)
    assert state.objective_value == exact
    for _ in range(4):
        mask = env.action_mask()
        action = int(np.flatnonzero(mask)[0])
        state, reward, _ = env.step(action)
        assert state.objective_value == objective.evaluate(
            problem.cost_model, state.placement
        )
    assert evaluator.stats.evaluations >= 5
    other = PlacementEvaluator(problem, MakespanObjective())
    with pytest.raises(ValueError):
        PlacementEnv(problem, objective, evaluator=other)


# -- CostModel.realize edge cases -------------------------------------------------------


def test_realize_edge_cases():
    rng = np.random.default_rng(0)
    # noise == 0: expectation passes through untouched, rng unused.
    assert CostModel.realize(3.5, 0.0, None) == 3.5
    assert CostModel.realize(3.5, 0.0, rng) == 3.5
    # zero expectation stays exactly zero even under noise.
    assert CostModel.realize(0.0, 0.5, rng) == 0.0
    # no rng: falls back to the expectation.
    assert CostModel.realize(2.0, 0.5, None) == 2.0
    # invalid noise levels raise once they would matter.
    with pytest.raises(ValueError):
        CostModel.realize(2.0, 1.5, rng)
    with pytest.raises(ValueError):
        CostModel.realize(2.0, -0.1, rng)
    # valid noise stays within the ±noise band around the expectation.
    for _ in range(50):
        value = CostModel.realize(2.0, 0.25, rng)
        assert 1.5 <= value <= 2.5
