"""Session-oriented placement runtime shared by the batch runner and the daemon.

:class:`PlacementSession` is the per-event adapt → repair → search →
migrate state machine, the one replay path: the batch runner and the
``repro serve`` daemon both drive it.  A session owns everything one
policy needs to track a changing cluster: the materialized event
stream, the current uid placements, a private :class:`EvaluatorPool`,
the relocation-cost model, and the evaluator totals each step diffs.  Each
:meth:`PlacementSession.step` consumes exactly one scenario event and
returns the resulting :class:`StepRecord`; :meth:`PlacementSession.report`
assembles the :class:`AdaptationReport` accumulated so far.

Determinism contract (inherited from the runner and pinned by the
serve equivalence suite): all replay randomness derives from
``(spec.seed, policy name, event index)`` and all oracle randomness
from ``(spec.seed, ORACLE_KEY, event index, graph index)``, so driving
a session one event at a time over a socket produces byte-identical
reports to the in-process batch replay — caches and batching change
speed, never values.

The module-level helpers (:func:`scenario_states`,
:func:`repair_placement`, :func:`migration_cost`,
:func:`oracle_event_slr`, …) are the single source of truth for how
events transform state; the runner calls them directly.
"""

from __future__ import annotations

import time
import zlib
from typing import Sequence

import numpy as np

from ..baselines.base import SearchPolicy
from ..baselines.heft import heft_placement
from ..baselines.random_policies import RandomTaskEftPolicy
from ..core.placement import PlacementProblem, random_placement
from ..devices.network import DeviceNetwork
from ..runtime.evaluator import EvaluatorPool, EvaluatorStats
from ..scenarios.events import MaterializedScenario, ScenarioEvent, materialize
from ..scenarios.report import AdaptationReport, StepRecord
from ..scenarios.spec import ScenarioSpec
from ..sim.metrics import cp_min_lower_bound
from ..sim.objectives import MakespanObjective, Objective
from ..sim.relocation import RelocationCostModel, TaskRelocationProfile
from ..telemetry import metrics, span

__all__ = [
    "EPISODE_MULTIPLIER",
    "ORACLE_KEY",
    "PlacementSession",
    "migration_cost",
    "oracle_event_slr",
    "policy_key",
    "relocation_model",
    "repair_placement",
    "scenario_states",
    "slr_denominator",
    "uid_placement",
]

ORACLE_KEY = zlib.crc32(b"__fresh-search-oracle__")

# Search budget per re-placement, in units of the graph's task count
# (the paper's 2·|V| protocol); the batch runner's oracle always uses it.
EPISODE_MULTIPLIER = 2


def policy_key(name: str) -> int:
    """Stable (non-salted) integer key for a policy name."""
    return zlib.crc32(name.encode("utf-8"))


def uid_placement(placement: Sequence[int], network: DeviceNetwork) -> tuple[int, ...]:
    """Dense device indices -> stable device uids."""
    return tuple(network.devices[d].uid for d in placement)


def relocation_profile(spec: ScenarioSpec) -> TaskRelocationProfile:
    return TaskRelocationProfile(
        migration_bytes=spec.relocation.migration_bytes,
        static_init_kbytes=spec.relocation.static_init_kbytes,
        startup_ms_by_type={"generic": spec.relocation.startup_ms},
    )


def relocation_model(
    spec: ScenarioSpec, network: DeviceNetwork, profile: TaskRelocationProfile | None = None
) -> RelocationCostModel:
    return RelocationCostModel(
        {"task": profile if profile is not None else relocation_profile(spec)},
        {d.uid: "generic" for d in network.devices},
        include_static_init=spec.relocation.include_static_init,
    )


def slr_denominator(problem: PlacementProblem, objective: Objective) -> float:
    if isinstance(objective, MakespanObjective):
        return cp_min_lower_bound(problem.cost_model)
    return 1.0


def repair_placement(
    prev_uids: Sequence[int] | None, problem: PlacementProblem
) -> tuple[int, ...]:
    """Carry a uid placement onto ``problem``'s (possibly new) network.

    Tasks whose device survived keep it; stranded tasks fall back to
    their fastest feasible device (deterministic, so replays agree).
    """
    network, w = problem.network, problem.cost_model.W
    out = []
    for task, feasible in enumerate(problem.feasible_sets):
        dense: int | None = None
        if prev_uids is not None and prev_uids[task] in network:
            candidate = network.index_of(prev_uids[task])
            if candidate in feasible:
                dense = candidate
        if dense is None:
            dense = int(min(feasible, key=lambda d: w[task, d]))
        out.append(dense)
    return tuple(out)


def migration_cost(
    prev_uids: Sequence[int] | None,
    new_uids: Sequence[int],
    network: DeviceNetwork,
    model: RelocationCostModel,
    lost_source_startup_ms: float,
) -> tuple[int, float]:
    """(moved task count, total migration ms) between two placements."""
    if prev_uids is None:
        return 0, 0.0  # initial placement: deployment, not migration
    moved, cost = 0, 0.0
    for old, new in zip(prev_uids, new_uids):
        if old == new:
            continue
        moved += 1
        if old in network:
            cost += model.cost_ms("task", network, old, new)
        else:
            # Source device left the cluster: state is lost, only the
            # target startup is payable.
            cost += lost_source_startup_ms
    return moved, cost


def scenario_states(materialized: MaterializedScenario):
    """Advance cluster/workload state event by event.

    Yields ``(None, problems, network)`` for the initial state, then
    ``(event, problems, network)`` per event — the single source of
    truth for how events transform state, shared by the oracle, the
    policy replay, and the serving sessions so none can disagree on
    it.  ``problems`` is a fresh tuple per yield, one problem per live
    graph.  An arrival keeps every earlier problem object (what makes
    :class:`EvaluatorPool` reuse pay off) and appends one; a network
    event replaces them all, in the same graph order, so the previous
    yield's ``problems[i]`` is the one ``problems[i]`` succeeds.
    """
    network = materialized.initial_network
    problems = tuple(PlacementProblem(g, network) for g in materialized.initial_graphs)
    yield None, problems, network
    for event in materialized.events:
        if event.kind == "arrival":
            problems = (*problems, PlacementProblem(event.graph, network))
        else:
            network = event.network
            problems = tuple(PlacementProblem(p.graph, network) for p in problems)
        yield event, problems, network


def oracle_event_slr(
    event: ScenarioEvent,
    problems: Sequence[PlacementProblem],
    pool: EvaluatorPool,
    seed: int,
    episode_multiplier: int,
) -> float:
    """Oracle SLR of one event: mean over its active graphs.

    Each (event, graph) pair draws from its own stream
    ``default_rng([seed, ORACLE_KEY, event.index, graph_index])``, so
    the oracle value of an event is a pure function of that event's
    identity — the property that lets events fan out over workers, and
    that lets a serving session compute it lazily per request while
    agreeing bit-for-bit with the batch runner's upfront series.
    ``pool`` supplies the evaluators and the objective.
    """
    objective = pool.objective
    searcher = RandomTaskEftPolicy()
    slrs = []
    with span("scenario.oracle"):
        for graph_index, problem in enumerate(problems):
            rng = np.random.default_rng([seed, ORACLE_KEY, event.index, graph_index])
            evaluator = pool.get(problem)
            heft_value = evaluator.evaluate(heft_placement(problem).placement)
            trace = searcher.search(
                problem,
                objective,
                random_placement(problem, rng),
                episode_multiplier * problem.graph.num_tasks,
                rng,
                evaluator=evaluator,
            )
            denom = slr_denominator(problem, objective)
            slrs.append(min(heft_value, trace.best_value) / denom)
    return float(np.mean(slrs))


class PlacementSession:
    """One policy tracking one scenario's cluster, event by event.

    Parameters
    ----------
    spec: the scenario (or a pre-materialized one — the daemon
        materializes once and shares it across tenant sessions).
    name: the policy name; seeds the session's rng streams, so the
        same (scenario, seed, name) always replays identically.
    policy: the :class:`SearchPolicy` driven on every event.
    episode_multiplier: search budget per re-placement, in units of the
        graph's task count (default :data:`EPISODE_MULTIPLIER`).
    oracle: whether oracle/regret fields are meaningful.  ``False``
        reports both as 0 (pure-throughput serving).
    oracle_slr: optional precomputed per-event oracle series (the batch
        runner's path).  When ``None`` and ``oracle`` is set, each
        event's oracle is computed lazily on demand from its own rng
        stream — bit-identical to the upfront series.
    """

    def __init__(
        self,
        spec: ScenarioSpec | MaterializedScenario,
        name: str,
        policy: SearchPolicy,
        *,
        episode_multiplier: int = EPISODE_MULTIPLIER,
        oracle: bool = True,
        oracle_slr: Sequence[float] | None = None,
    ) -> None:
        if episode_multiplier < 1:
            raise ValueError("episode_multiplier must be >= 1")
        self.materialized = spec if isinstance(spec, MaterializedScenario) else materialize(spec)
        self.spec = self.materialized.spec
        self.name = name
        self.policy = policy
        self.episode_multiplier = episode_multiplier
        self.oracle = oracle
        self._oracle_series = None if oracle_slr is None else [float(v) for v in oracle_slr]

        self._objective = self.spec.make_objective()
        self._key = policy_key(name)
        self._profile = relocation_profile(self.spec)
        self._pool = EvaluatorPool(self._objective)
        # Evaluator totals at the previous step / report: each step records,
        # and each report absorbs, only what happened since.
        self._stepped = EvaluatorStats()
        self._reported = EvaluatorStats()
        # The lazy oracle owns a separate pool: oracle evaluations must
        # not leak into the policy's per-step cache statistics.
        self._oracle_pool = (
            EvaluatorPool(self._objective) if oracle and oracle_slr is None else None
        )

        self._states = scenario_states(self.materialized)
        _, problems, network = next(self._states)
        self._problems = problems
        self._model = relocation_model(self.spec, network, self._profile)

        # Initial deployment: a shared random placement per graph, the
        # state every event adapts from.
        init_rng = np.random.default_rng([self.spec.seed, self._key, 0])
        self.placements: list[tuple[int, ...] | None] = [
            uid_placement(random_placement(p, init_rng), network) for p in problems
        ]

        self.steps: list[StepRecord] = []

    # -- introspection -----------------------------------------------------------

    @property
    def num_events(self) -> int:
        return self.materialized.num_events

    @property
    def remaining(self) -> int:
        return self.num_events - len(self.steps)

    # -- oracle ------------------------------------------------------------------

    def _oracle_value(self, event: ScenarioEvent, problems: Sequence[PlacementProblem]) -> float:
        if self._oracle_series is not None:
            return float(self._oracle_series[event.index])
        if not self.oracle:
            return 0.0
        return oracle_event_slr(
            event, problems, self._oracle_pool, self.spec.seed, self.episode_multiplier
        )

    # -- the per-event state machine ---------------------------------------------

    def step(self) -> StepRecord:
        """Consume the next scenario event; adapt, search, migrate, record.

        Raises :class:`StopIteration` when the event stream is drained.
        """
        event, problems, network = next(self._states)
        began = time.perf_counter()
        spec, policy = self.spec, self.policy
        adapt = getattr(policy, "adapt", None)
        if callable(adapt):
            with span("scenario.adapt"):
                adapt(event)
        if event.kind == "arrival":
            self.placements.append(None)
        else:
            self._model = relocation_model(spec, network, self._profile)
            # Every graph's problem was replaced: its evaluator is dead.
            for retired, successor in zip(self._problems, problems):
                self._pool.retire(retired, successor)
        self._problems = problems

        rng = np.random.default_rng([spec.seed, self._key, 1 + event.index])
        values, slrs = [], []
        moved_total, cost_total = 0, 0.0
        for i, problem in enumerate(problems):
            initial = repair_placement(self.placements[i], problem)
            with span("scenario.search"):
                trace = policy.search(
                    problem,
                    self._objective,
                    initial,
                    self.episode_multiplier * problem.graph.num_tasks,
                    rng,
                    evaluator=self._pool.get(problem),
                )
            new_uids = uid_placement(trace.best_placement, network)
            with span("scenario.migrate"):
                moved, cost = migration_cost(
                    self.placements[i],
                    new_uids,
                    network,
                    self._model,
                    spec.relocation.startup_ms,
                )
            self.placements[i] = new_uids
            moved_total += moved
            cost_total += cost
            values.append(trace.best_value)
            slrs.append(trace.best_value / slr_denominator(problem, self._objective))

        elapsed = time.perf_counter() - began
        total = self.evaluator_stats()
        step_stats = total.delta(self._stepped)
        self._stepped = total
        frequency = spec.relocation.pipeline_frequency_hz
        oracle_value = self._oracle_value(event, problems)
        record = StepRecord(
            index=event.index,
            step=event.step,
            kind=event.kind,
            num_graphs=len(problems),
            num_devices=network.num_devices,
            mean_value=float(np.mean(values)),
            mean_slr=float(np.mean(slrs)),
            oracle_slr=oracle_value,
            # Without an oracle there is nothing to regret against.
            regret=float(np.mean(slrs) - oracle_value) if self.oracle else 0.0,
            migrated_tasks=moved_total,
            migration_cost_ms=cost_total,
            amortized_migration_ms=cost_total / frequency if frequency else cost_total,
            replace_seconds=elapsed,
            evaluations=step_stats.evaluations,
            cache_hit_rate=step_stats.hit_rate,
        )
        self.steps.append(record)
        return record

    def run(self) -> AdaptationReport:
        """Drain every remaining event, then return the report."""
        while self.remaining:
            self.step()
        return self.report()

    def evaluator_stats(self) -> EvaluatorStats:
        """The session's evaluator totals so far (a fresh copy)."""
        return self._pool.stats()

    def report(self) -> AdaptationReport:
        """The :class:`AdaptationReport` of the steps consumed so far."""
        final_stats = self.evaluator_stats()
        # Only what was evaluated since the previous report: a client may
        # ask for a report mid-stream and keep sending events.
        metrics().absorb("scenario.evaluator", final_stats.delta(self._reported).counters())
        self._reported = final_stats
        return AdaptationReport(
            scenario=self.spec.name,
            policy=self.name,
            seed=self.spec.seed,
            objective=self.spec.objective,
            steps=tuple(self.steps),
            evaluator_stats=final_stats.as_dict(),
        )
