"""Fault harness, placement key types: a cache hit is a type proof.

Equal tuples hash and compare alike whatever their elements, so a cache
keyed by raw tuples finds the entry of ``(1, 0)`` for ``(1.0, 0.0)``,
which an empty cache refuses with ``task 0: device index must be an int,
not 1.0``.  The evaluator keys by packed bytes instead: ``struct`` reads
each element through ``__index__`` and refuses floats, strings, wrong
lengths and indices beyond the key width.  Hypothesis draws call
sequences — ``evaluate``, ``timeline`` and ``evaluate_many`` — whose
placements are int, list, NumPy (``int64``, ``uint8``, array), float,
bool and str variants of a few placements, a row whose first element
is a one-element array (it has ``__index__``, which raises
``TypeError``), and rows with one index
replaced by ``-1``, ``num_devices`` or ``256`` or one task short, reusing
the same objects so the repeat path runs too; once on small networks
(1-byte keys), once on a 300-device one (2-byte keys, where ``256`` can
be a device).  Every call must return what a fresh evaluator returns for
it, or raise that evaluator's exact ``ValueError``.  A call that raises
leaves no trace.  Counters and LRU order (keys unpacked to int tuples)
follow a plain model of the two caches in which an accepted placement
counts as its validated int key.  Nothing here blocks, so no deadline is
needed.
"""

from collections import Counter, OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.placement import PlacementProblem, random_placement
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.runtime import PlacementEvaluator
from repro.sim.objectives import MakespanObjective

CACHE_SIZE, TIMELINE_CACHE_SIZE = 3, 2  # small enough to evict

VARIANTS = {  # (placement, num_devices) -> the object a call passes
    "int": lambda p, m: tuple(p),
    "list": lambda p, m: list(p),
    "numpy": lambda p, m: tuple(np.int64(d) for d in p),
    "uint8": lambda p, m: tuple(np.array(p).astype(np.uint8)),  # wraps past 255
    "array": lambda p, m: np.array(p),
    "float": lambda p, m: tuple(map(float, p)),
    "one-float": lambda p, m: (float(p[0]), *p[1:]),
    "nested-array": lambda p, m: (np.array([p[0]]), *p[1:]),
    "bool": lambda p, m: tuple(map(bool, p)),
    "str": lambda p, m: tuple(map(str, p)),
    "negative": lambda p, m: (*p[:-1], -1),
    "num_devices": lambda p, m: (m, *p[1:]),
    "256": lambda p, m: (*p[:-1], 256),
    "short": lambda p, m: tuple(p[:-1]),
}

_PLACEMENT = st.tuples(st.integers(0, 2), st.sampled_from(sorted(VARIANTS)))
_CALLS = st.one_of(
    st.tuples(st.sampled_from(["evaluate", "timeline"]), _PLACEMENT),
    st.tuples(st.just("evaluate_many"), st.lists(_PLACEMENT, max_size=4)),
)


def make_problem(seed: int, num_devices: int | None = None) -> PlacementProblem:
    rng = np.random.default_rng(seed)
    graph = generate_task_graph(TaskGraphParams(num_tasks=int(rng.integers(2, 7))), rng)
    if num_devices is None:
        num_devices = int(rng.integers(2, 5))
    network = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    return PlacementProblem(graph, network)


class CacheModel:
    """The two LRUs and the counters, over validated int keys."""

    def __init__(self) -> None:
        self.values: OrderedDict = OrderedDict()
        self.timelines: OrderedDict = OrderedDict()
        self.stats: Counter = Counter()

    def _touch(self, lru: OrderedDict, key, cap: int, counter: str) -> None:
        if key in lru:
            lru.move_to_end(key)
            self.stats[f"{counter}_hits"] += 1
            return
        self.stats[f"{counter}_misses"] += 1
        lru[key] = None
        if len(lru) > cap:
            lru.popitem(last=False)

    def timeline(self, key) -> None:
        self._touch(self.timelines, key, TIMELINE_CACHE_SIZE, "timeline")

    def evaluate(self, key) -> None:
        self.stats["evaluations"] += 1
        if key not in self.values:
            self.stats["fast_path"] += 1
            self.timeline(key)
        self._touch(self.values, key, CACHE_SIZE, "cache")

    def evaluate_many(self, keys) -> None:
        self.stats["batch_calls"] += 1
        self.stats["evaluations"] += len(keys)
        misses = list(dict.fromkeys(key for key in keys if key not in self.values))
        for key in keys:
            if key in self.values:
                self.values.move_to_end(key)
        self.stats["cache_hits"] += len(keys) - len(misses)
        self.stats["cache_misses"] += len(misses)
        self.stats["fast_path"] += len(misses)
        for key in misses:
            self.values[key] = None
        while len(self.values) > CACHE_SIZE:
            self.values.popitem(last=False)


def _call(evaluator, name, arg):
    if name == "timeline":
        timeline = evaluator.timeline(arg)
        return timeline.makespan, timeline.start.tobytes(), timeline.finish.tobytes()
    if name == "evaluate_many":
        return evaluator.evaluate_many(arg).tolist()
    return evaluator.evaluate(arg)


def _outcome(evaluator, name, arg):
    """``(True, result)``, or ``(False, message)`` for a ``ValueError``."""
    try:
        return True, _call(evaluator, name, arg)
    except ValueError as error:
        return False, str(error)


def _state(evaluator):
    return (
        {name: count for name, count in evaluator.stats.counters().items() if count},
        [evaluator._keys.unpack(key) for key in evaluator._values],
        [evaluator._keys.unpack(key) for key in evaluator._timelines],
    )


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 40),
    calls=st.lists(_CALLS, min_size=4, max_size=24),
)
@example(  # the reported case: a float twin after its int placement was cached
    seed=0,
    calls=[("evaluate", (0, "int")), ("evaluate", (0, "float")),
           ("timeline", (0, "float")), ("evaluate_many", [(0, "float")])],
)
def test_every_call_is_a_fresh_evaluators_call(seed, calls):
    run_calls(make_problem(seed), seed, calls, width="B")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 40), calls=st.lists(_CALLS, min_size=4, max_size=24))
@example(  # 256 is a device here: the row validates and gets its own key
    seed=0, calls=[("evaluate", (0, "int")), ("evaluate", (0, "256")), ("timeline", (0, "256"))],
)
def test_two_byte_keys_follow_the_same_model(seed, calls):
    run_calls(make_problem(seed, num_devices=300), seed, calls, width="H")


def test_nested_array_is_refused_by_name():
    # ``np.array([d])`` has ``__index__``, and the call raises ``TypeError``.
    problem = make_problem(0)
    row = (np.array([0]), *random_placement(problem, np.random.default_rng(0))[1:])
    message = "task 0: device index must be an int, not array([0])"
    with pytest.raises(ValueError) as direct:
        problem.validate_placement(row)
    evaluator = PlacementEvaluator(problem, MakespanObjective())
    with pytest.raises(ValueError) as evaluated:
        evaluator.evaluate(row)
    assert str(direct.value) == str(evaluated.value) == message


def run_calls(problem, seed, calls, width):
    rng = np.random.default_rng(seed)
    placements = [random_placement(problem, rng) for _ in range(3)]
    m = problem.network.num_devices
    objects = {  # one object per (placement, variant): repeats reuse it
        (i, variant): make(p, m) for i, p in enumerate(placements) for variant, make in VARIANTS.items()
    }

    def key_of(chosen):
        return problem.validate_placement(objects[chosen])

    evaluator = PlacementEvaluator(
        problem, MakespanObjective(), cache_size=CACHE_SIZE, timeline_cache_size=TIMELINE_CACHE_SIZE
    )
    assert evaluator._keys.format == f"<{problem.graph.num_tasks}{width}"
    model = CacheModel()
    for name, chosen in calls:
        arg = [objects[c] for c in chosen] if name == "evaluate_many" else objects[chosen]
        fresh = PlacementEvaluator(problem, MakespanObjective())
        before = _state(evaluator)
        got = _outcome(evaluator, name, arg)
        assert got == _outcome(fresh, name, arg), (name, chosen)
        if not got[0]:
            assert _state(evaluator) == before  # refused without a trace
            continue
        if name == "evaluate_many":
            model.evaluate_many([key_of(c) for c in chosen])
        else:
            getattr(model, name)(key_of(chosen))
        assert _state(evaluator) == (
            dict(+model.stats), list(model.values), list(model.timelines)
        ), (name, chosen)
