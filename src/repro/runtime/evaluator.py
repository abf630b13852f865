"""PlacementEvaluator: the single scoring path for placements.

Owns one (graph, network, objective) triple and funnels every
ρ(M | G, N) evaluation in the codebase — env steps, search episodes,
training, baselines, experiment sweeps — through one object that can
amortize work the per-call path cannot:

* an LRU placement → value cache, bypassed when the objective declares
  itself non-deterministic (noisy objectives must re-sample per call);
* an LRU placement → timeline cache of noise-free schedules, shared
  between the makespan objective and gpNet feature construction (the
  seed code simulated the same placement twice per env step); both key
  a placement by its packed bytes, so a hit is its own feasibility
  proof (the class docstring's cache-key invariant);
* a vectorized :meth:`evaluate_many` batch API riding the NumPy
  simulator of :mod:`repro.runtime.fastsim` (``fast_path``), handing
  noisy/unknown objectives to their own per-call ``evaluate``
  (``exact_path``; a noisy makespan is the same simulator, drawing);
* a repeat path: per cache, the newest call's tuple object and result,
  served without a lookup when the caller passes that object again
  (most steps of an incremental search move nothing).

Every value equals the per-call ``Objective.evaluate``'s bit for bit (a
makespan, the reference loop :func:`repro.sim.executor.simulate`'s); see
``tests/runtime/test_evaluator.py``.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from dataclasses import dataclass
from functools import cache
from itertools import islice, starmap
from typing import Any, Callable, Sequence

import numpy as np

from ..core.placement import PlacementProblem
from ..sim.executor import SimResult
from ..sim.objectives import MakespanObjective, Objective
from ..telemetry import metrics, span, traced
from .fastsim import FastSimulator

__all__ = ["EvaluatorStats", "PlacementEvaluator", "EvaluatorPool", "coalesce_evaluate"]

# The fields of EvaluatorStats.  A plain tuple, not dataclasses.fields():
# merge runs once per pooled evaluator on every serving-session step.
_COUNTERS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "fast_path",
    "exact_path",
    "batch_calls",
    "timeline_hits",
    "timeline_misses",
)

# The empty repeat entry matches no caller's object, not even ``None``.
_NO_REPEAT = (object(), None)


_key_struct = cache(struct.Struct)  # one cache-key packer per format, shared


@dataclass
class EvaluatorStats:
    """Counters describing where evaluations were served from.

    ``evaluations`` counts scored placements (a batch of B counts B);
    ``cache_hits``/``cache_misses`` partition the deterministic lookups;
    ``fast_path`` / ``exact_path`` partition the actual computations
    (fast NumPy simulator vs. the per-call objective).
    """

    evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fast_path: int = 0
    exact_path: int = 0
    batch_calls: int = 0
    timeline_hits: int = 0
    timeline_misses: int = 0

    @property
    def hit_rate(self) -> float:
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0

    def merge(self, other: "EvaluatorStats") -> "EvaluatorStats":
        """Accumulate ``other`` into self (for sweep-level aggregation)."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def delta(self, since: "EvaluatorStats") -> "EvaluatorStats":
        """Counts accumulated after the ``since`` total was taken."""
        return EvaluatorStats(**{n: getattr(self, n) - getattr(since, n) for n in _COUNTERS})

    def counters(self) -> dict[str, int]:
        """The additive counters — what :meth:`Metrics.absorb` takes."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def as_dict(self) -> dict[str, float]:
        """The counters plus the derived ``hit_rate``."""
        return {**self.counters(), "hit_rate": self.hit_rate}


class PlacementEvaluator:
    """Batched, caching scorer for one (problem, objective) pair.

    Parameters
    ----------
    problem: the (G, N) instance every placement is scored against.
    objective: performance criterion ρ; its ``deterministic`` flag
        (see :mod:`repro.sim.objectives`) decides cache eligibility.
    cache_size: LRU capacity of the placement → value cache.
    timeline_cache_size: LRU capacity of the timeline cache (defaults
        to min(cache_size, 512): a SimResult is orders of magnitude
        heavier than a float, and timelines are only re-read within a
        search episode's working set).
    simulator: the problem's :class:`FastSimulator`, if one is at hand.

    Cache-key invariant: both caches key a placement by ``pack(*placement)``,
    ``num_tasks`` unsigned indices as narrow as ``num_devices - 1`` allows.
    ``pack`` reads each element through ``__index__`` as ``validate_placement``
    does, so an ``int``, a ``bool`` and a NumPy int pack to their validated
    tuple's bytes (one placement, one key); a float, a string, a wrong length
    or an index beyond the width is refused and validated, which raises.  Only
    a validated placement's key is stored, so an entry found in either cache
    *is* the feasibility proof; a miss is validated before anything is counted.

    Repeat invariant: ``_last_value`` / ``_last_timeline`` hold the
    caller's tuple and the result of the newest call on that cache, so
    its key is last in the LRU and the ``move_to_end`` a repeat skips
    (counting what a hit counts) is a no-op.  Any other access to a cache
    resets its entry.  Only exact ``tuple``s (a list can change in
    place) are kept, and never a sampled value.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        objective: Objective,
        cache_size: int = 4096,
        timeline_cache_size: int | None = None,
        simulator: FastSimulator | None = None,
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        if timeline_cache_size is None:
            timeline_cache_size = min(cache_size, 512)
        if timeline_cache_size < 1:
            raise ValueError("timeline_cache_size must be >= 1")
        self.problem = problem
        self.objective = objective
        self.cache_size = cache_size
        self.timeline_cache_size = timeline_cache_size
        # Unknown objectives conservatively count as non-deterministic:
        # caching a sampled value would silently freeze its noise.
        self.deterministic = bool(getattr(objective, "deterministic", False))
        # Exact type check, not isinstance: a MakespanObjective subclass
        # may override evaluate() (e.g. makespan + penalty), and routing
        # it through the plain-makespan fast path would silently drop the
        # override.  Subclasses still cache via the exact-evaluate path.
        self._is_makespan = type(objective) is MakespanObjective
        self._sim = FastSimulator(problem) if simulator is None else simulator
        code = next(c for c in "BHI" if problem.network.num_devices <= 256 ** struct.calcsize(c))
        self._keys = _key_struct(f"<{problem.graph.num_tasks}{code}")
        self._values: OrderedDict[bytes, float] = OrderedDict()
        self._timelines: OrderedDict[bytes, SimResult] = OrderedDict()
        self._last_value: tuple[Any, Any] = _NO_REPEAT
        self._last_timeline: tuple[Any, Any] = _NO_REPEAT
        self.stats = EvaluatorStats()

    # -- timelines --------------------------------------------------------------------

    def timeline(self, placement: Sequence[int]) -> SimResult:
        """Noise-free schedule of ``placement`` (expectation timeline).

        Always deterministic regardless of the objective's noise — this
        is the timeline gpNet features are measured against — so it is
        always cached.
        """
        last, result = self._last_timeline
        if placement is last:
            self.stats.timeline_hits += 1
            return result
        result = self._timeline(*self._lookup(self._timelines, placement), placement)
        if type(placement) is tuple:
            self._last_timeline = (placement, result)
        return result

    def _timeline(self, key: bytes, cached: SimResult | None, placement: Sequence[int]) -> SimResult:
        """:meth:`timeline` of ``placement`` (packed: ``key``); a miss is validated first."""
        self._last_timeline = _NO_REPEAT
        if cached is not None:
            self._timelines.move_to_end(key)
            self.stats.timeline_hits += 1
            return cached
        valid = self.problem.validate_placement(placement)
        self.stats.timeline_misses += 1
        with span("evaluator.sim"):
            result = self._sim.run(valid, validate=False)
        self._store(self._timelines, key, result)
        return result

    # -- scoring ----------------------------------------------------------------------

    def evaluate(self, placement: Sequence[int]) -> float:
        """Score one placement; cached when the objective allows it."""
        last, value = self._last_value
        if placement is last:
            self.stats.evaluations += 1
            self.stats.cache_hits += 1
            return value
        if not self.deterministic:
            valid = self.problem.validate_placement(placement)
            self.stats.evaluations += 1
            self.stats.exact_path += 1
            return self.objective.evaluate(self.problem.cost_model, valid)
        key, value = self._lookup(self._values, placement)
        if value is not None:
            self._values.move_to_end(key)
            self.stats.cache_hits += 1
        else:  # every count follows the miss's validation
            if self._is_makespan:  # shares the timeline cache with gpNet features
                value = self._timeline(key, self._timelines.get(key), placement).makespan
                self.stats.fast_path += 1
            else:
                valid = self.problem.validate_placement(placement)
                value = self.objective.evaluate(self.problem.cost_model, valid)
                self.stats.exact_path += 1
            self.stats.cache_misses += 1
            self._store(self._values, key, value)
        self.stats.evaluations += 1
        self._last_value = (placement, value) if type(placement) is tuple else _NO_REPEAT
        return value

    @traced("evaluator.batch")
    def evaluate_many(self, placements: Sequence[Sequence[int]]) -> np.ndarray:
        """Score a batch; identical to ``[evaluate(p) for p in placements]``.

        One pack and one lookup per placement (a batch that cannot pack is
        validated whole, which raises), then one ``validate_many`` of the
        misses, before anything is counted.  On the makespan path the distinct
        misses' rows go to :meth:`FastSimulator.makespans` (no timeline is
        built).  Every miss is a new key: the LRU evicts once, after the batch.
        """
        cache, placements = self._values, list(placements)
        try:
            keys = list(starmap(self._keys.pack, placements))
        except (struct.error, TypeError):  # refused: validation raises its ValueError
            keys = list(starmap(self._keys.pack, self.problem.validate_many(placements)[0]))
        found = list(map(cache.get, keys))
        missed = [i for i, value in enumerate(found) if value is None]
        valid, rows = self.problem.validate_many([placements[i] for i in missed])
        self._last_value = _NO_REPEAT
        self.stats.batch_calls += 1
        if not keys:
            return np.zeros(0, dtype=np.float64)
        self.stats.evaluations += len(keys)
        metrics().histogram("evaluator.batch_size").observe(len(keys))
        cm = self.problem.cost_model
        if not self.deterministic:  # nothing is cached: every placement missed
            self.stats.exact_path += len(keys)
            with span("evaluator.exact"):
                return np.array([self.objective.evaluate(cm, k) for k in valid], dtype=np.float64)

        # Within-batch duplicates are computed once: the first occurrence
        # is a miss, every repeat a (warming-cache) hit.
        new = dict(zip([keys[i] for i in missed], range(len(missed))))  # key -> one of its rows
        for key in [keys[i] for i, value in enumerate(found) if value is not None]:
            cache.move_to_end(key)
        self.stats.cache_hits += len(keys) - len(new)
        if new:
            self.stats.cache_misses += len(new)
            if self._is_makespan:
                with span("evaluator.sim"):
                    self.stats.fast_path += len(new)
                    # Scalars only: batch callers score one-shot candidates,
                    # and a SimResult per batch miss would churn the (heavier)
                    # timeline LRU that timeline() consumers rely on.
                    computed = self._sim.makespans(rows[list(new.values())])
            else:
                self.stats.exact_path += len(new)
                with span("evaluator.exact"):
                    computed = [self.objective.evaluate(cm, valid[j]) for j in new.values()]
            cache.update(zip(new, computed))
            for i in missed:
                found[i] = cache[keys[i]]
            for _ in range(len(cache) - self.cache_size):
                cache.popitem(last=False)
        return np.array(found, dtype=np.float64)

    # -- internals --------------------------------------------------------------------

    def _lookup(self, cache: OrderedDict, placement: Sequence[int]) -> tuple[bytes, Any]:
        """``(key, cached entry or None)``; what cannot pack is validated, which raises."""
        try:
            key = self._keys.pack(*placement)
        except (struct.error, TypeError):  # refused: validation raises its ValueError
            key = self._keys.pack(*self.problem.validate_placement(placement))
        return key, cache.get(key)

    def _store(self, cache: OrderedDict, key: bytes, value) -> None:
        cache[key] = value  # a miss's key: new, so last
        cap = self.timeline_cache_size if cache is self._timelines else self.cache_size
        if len(cache) > cap:
            cache.popitem(last=False)


def coalesce_evaluate(
    requests: Sequence[tuple[PlacementEvaluator, Sequence[Sequence[int]]]],
) -> list[list[float]]:
    """Score mixed-evaluator requests through one batch per evaluator.

    The request-batching primitive of the serve runtime: the
    ``(evaluator, placements)`` requests against one (problem, objective)
    coalesce, in request order, into one :meth:`PlacementEvaluator.evaluate_many`
    call (one feasibility check, one fast-path cost realization instead
    of N).  Each request gets its values as a list, identical to calling
    ``evaluator.evaluate(p)`` per placement — batching changes speed, never values.
    """
    groups: dict[int, list[int]] = {}
    for r, (evaluator, _) in enumerate(requests):
        groups.setdefault(id(evaluator), []).append(r)
    out: list[list[float]] = [[] for _ in requests]
    for members in groups.values():
        batch = [p for r in members for p in requests[r][1]]
        values = iter(requests[members[0]][0].evaluate_many(batch).tolist())
        for r in members:
            out[r] = list(islice(values, len(requests[r][1])))
    return out


class EvaluatorPool:
    """Per-problem :class:`PlacementEvaluator` memo for one objective.

    Trainers sweep a problem distribution episode by episode; the pool
    hands every episode of the same problem instance the same evaluator
    so its caches keep paying off.  Keyed by object identity (the pool
    holds the problem alive, so ids cannot be recycled underneath it).

    The pool itself is LRU-bounded by ``max_problems`` so a long sweep
    over a large problem distribution cannot pin one cache-laden
    evaluator per instance forever; evicted problems simply start with
    cold caches if they come around again (their stats are folded into
    the pool's aggregate first).  A problem that cannot come around again
    (a network event replaced it) is :meth:`retire`-d, dropped the same way.
    """

    def __init__(
        self,
        objective: Objective,
        cache_size: int = 4096,
        max_problems: int = 128,
        on_evict: "Callable[[int, PlacementEvaluator], None] | None" = None,
    ) -> None:
        if max_problems < 1:
            raise ValueError("max_problems must be >= 1")
        self.objective = objective
        self.cache_size = cache_size
        self.max_problems = max_problems
        # Called as on_evict(problem_id, evaluator) when the LRU (or
        # retire) drops a problem — owners of sibling per-problem caches
        # (e.g. the trainer's gpNet builders) use it to evict their half
        # in lockstep instead of aging out on a different access pattern.
        self.on_evict = on_evict
        self._by_problem: OrderedDict[int, PlacementEvaluator] = OrderedDict()
        self._evicted_stats = EvaluatorStats()

    def get(self, problem: PlacementProblem) -> PlacementEvaluator:
        """The shared evaluator for ``problem`` (created on first use)."""
        evaluator = self._by_problem.get(id(problem))
        if evaluator is not None:
            self._by_problem.move_to_end(id(problem))
            return evaluator
        return self._seat(problem, PlacementEvaluator(problem, self.objective, self.cache_size))

    def retire(self, problem: PlacementProblem, successor: PlacementProblem) -> None:
        """Evict ``problem``'s evaluator (stats folded, ``on_evict`` told) and
        seat ``successor``'s — ``problem``'s graph on another network — with
        empty caches and the retired simulator's graph-only walk.  A problem
        the pool does not hold retires nothing."""
        evaluator = self._by_problem.pop(id(problem), None)
        if evaluator is not None:
            self._evict(id(problem), evaluator)
            simulator = evaluator._sim.rebind(successor)
            self._seat(successor, PlacementEvaluator(
                successor, self.objective, self.cache_size, simulator=simulator
            ))

    def _seat(self, problem: PlacementProblem, evaluator: PlacementEvaluator):
        self._by_problem[id(problem)] = evaluator
        if len(self._by_problem) > self.max_problems:
            self._evict(*self._by_problem.popitem(last=False))
        return evaluator

    def _evict(self, problem_id: int, evaluator: PlacementEvaluator) -> None:
        self._evicted_stats.merge(evaluator.stats)
        if self.on_evict is not None:
            self.on_evict(problem_id, evaluator)

    def stats(self) -> EvaluatorStats:
        """Counters aggregated across every evaluator the pool has seen."""
        total = EvaluatorStats()
        total.merge(self._evicted_stats)
        for evaluator in self._by_problem.values():
            total.merge(evaluator.stats)
        return total
