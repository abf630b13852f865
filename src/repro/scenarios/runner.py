"""Streaming replay engine: policies adapting to a scenario's events.

:class:`ScenarioRunner` materializes a spec once, then replays its event
stream against any number of :class:`~repro.baselines.base.SearchPolicy`
implementations.  Per event it

1. notifies the policy through its ``adapt(event)`` hook,
2. carries each graph's previous placement onto the changed network
   (repairing tasks stranded on removed devices),
3. re-runs the policy's search from that carried placement, reusing the
   per-problem :class:`~repro.runtime.evaluator.PlacementEvaluator`
   through an :class:`~repro.runtime.evaluator.EvaluatorPool` so caches
   survive events that leave the network untouched,
4. charges every task move through the scenario's
   :class:`~repro.sim.relocation.RelocationCostModel`, and
5. records a :class:`~repro.scenarios.report.StepRecord` with the SLR,
   the regret against a fresh-search oracle, and cache statistics.

All replay randomness derives from ``(spec.seed, policy name, event
index)`` and all oracle randomness from ``(spec.seed, oracle key, event
index, graph index)``, so a report is bit-identical across replays,
independent of which other policies run alongside, and independent of
how many workers the oracle's events fan out over.

The per-event state machine itself lives in
:mod:`repro.serve.session` (:class:`~repro.serve.session.PlacementSession`)
so the ``repro serve`` daemon drives the same code; this module keeps
only the batch orchestration — oracle series and policy fan-out.  The
session import is deferred to call time because the serve package
imports scenario submodules (deferral breaks the package cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from ..baselines.base import SearchPolicy
from ..core.placement import PlacementProblem
from ..parallel import ExecutionBackend, ForkBackend, InlineBackend, get_context
from ..runtime.evaluator import EvaluatorPool
from .events import MaterializedScenario, ScenarioEvent, materialize
from .report import AdaptationReport
from .spec import ScenarioSpec

__all__ = ["ScenarioRunner", "ScenarioResult"]


def _session_mod():
    from ..serve import session

    return session


@dataclass(frozen=True)
class ScenarioResult:
    """Replay output: one :class:`AdaptationReport` per policy."""

    materialized: MaterializedScenario
    reports: dict[str, AdaptationReport]
    oracle_slr: tuple[float, ...]

    def slr_series(self, policy: str) -> list[float]:
        return self.reports[policy].series("mean_slr")


class ScenarioRunner:
    """Replay one scenario against placement policies.

    Parameters
    ----------
    spec: the declarative scenario (or pass a pre-materialized one).
    oracle: compute the fresh-search oracle (HEFT ∧ random-task-EFT from
        a fresh random start) per event; disable for pure throughput
        runs, where regret is reported as 0.

    Policies and oracle search :data:`~repro.serve.session.EPISODE_MULTIPLIER`
    × |V| steps per re-placement.
    """

    def __init__(
        self, spec: ScenarioSpec | MaterializedScenario, oracle: bool = True
    ) -> None:
        self.materialized = spec if isinstance(spec, MaterializedScenario) else materialize(spec)
        self.spec = self.materialized.spec
        self.oracle = oracle
        self._oracle_cache: list[float] | None = None

    # -- oracle ------------------------------------------------------------------

    def _oracle_slr(self, backend: ExecutionBackend | None = None) -> list[float]:
        """Per-event fresh-search oracle SLR series.

        The oracle ignores placement carry-over: per (event, graph) it
        takes the better of HEFT and a random-task-EFT search started
        from a fresh random placement with the same step budget.  The
        events fan out through ``backend``; per-(event, graph) streams
        make the series bit-identical at any worker count and under any
        backend.  The inline path runs the events directly against the
        context (no pickling), one evaluator pool shared across events —
        caches never change values, so both paths agree bit-for-bit.
        """
        states = [
            (event, problems)
            for event, problems, _ in _session_mod().scenario_states(self.materialized)
            if event is not None
        ]
        context = _OracleContext(self.spec, states)
        backend = backend or InlineBackend()
        if isinstance(backend, InlineBackend):
            return [context.event_slr(index) for index in range(len(states))]
        return backend.fanout(_oracle_event, range(len(states)), context)

    # -- replay ------------------------------------------------------------------

    def run(
        self,
        policies: Mapping[str, SearchPolicy],
        backend: ExecutionBackend | None = None,
    ) -> ScenarioResult:
        """Replay the scenario for every policy; see the class docstring.

        The fresh-search oracle's events fan out through ``backend``
        (each (event, graph) pair owns a derived stream), then the
        policies fan out the same way.  Each policy's replay already
        derives all randomness from
        ``(spec.seed, policy name, event index)`` and keeps a private
        :class:`EvaluatorPool`, so per-policy reports are bit-identical
        to a serial run for any worker count and any backend (only the
        wall-clock ``replace_seconds`` fields vary).  Non-inline
        backends replay pickled policy copies: stateful policies (e.g. a
        retrained RNN placer) keep their mutations worker-side, as if
        each had its own replica.  The inline path replays the caller's
        policy objects directly — ``adapt(event)`` side effects stay
        visible, and non-picklable ad-hoc policies are accepted.
        """
        if not policies:
            raise ValueError("need at least one policy")
        backend = backend or InlineBackend()
        if self.oracle:
            if self._oracle_cache is None:
                # Deterministic in the runner's configuration, so repeated
                # run() calls (policy sweeps, benchmarks) pay for it once.
                self._oracle_cache = self._oracle_slr(backend=backend)
            oracle_slr = self._oracle_cache
        else:
            oracle_slr = [0.0] * self.materialized.num_events
        # Direct (no-pickling) replay when fanning out cannot help:
        # inline always, and a fork pool with a single policy — ad-hoc
        # non-picklable policies keep working there.  Store-mediated
        # backends always fan out: the merge pass needs the cell.
        direct = isinstance(backend, InlineBackend) or (
            isinstance(backend, ForkBackend) and len(policies) == 1
        )
        if not direct:
            names = list(policies)
            context = _ReplayContext(self, dict(policies), list(oracle_slr))
            reports = dict(zip(names, backend.fanout(_replay_policy, names, context)))
        else:
            reports = {
                name: self._run_policy(name, policy, oracle_slr)
                for name, policy in policies.items()
            }
        return ScenarioResult(
            materialized=self.materialized,
            reports=reports,
            oracle_slr=tuple(oracle_slr),
        )

    def _run_policy(
        self, name: str, policy: SearchPolicy, oracle_slr: Sequence[float]
    ) -> AdaptationReport:
        session = _session_mod().PlacementSession(
            self.materialized,
            name,
            policy,
            oracle=self.oracle,
            oracle_slr=oracle_slr,
        )
        return session.run()


# -- parallel fan-out ---------------------------------------------------------------


@dataclass
class _OracleContext:
    """Broadcast payload for the per-event oracle workers.

    ``states`` is pickled as one object graph, so problem identity is
    preserved within each worker's copy and the worker-local pool, built
    on first use, keeps paying off across the events that land on that
    worker (caches change speed, never values).
    """

    spec: ScenarioSpec
    states: list[tuple[ScenarioEvent, tuple[PlacementProblem, ...]]]

    @cached_property
    def pool(self) -> EvaluatorPool:
        return EvaluatorPool(self.spec.make_objective())

    def event_slr(self, index: int) -> float:
        event, problems = self.states[index]
        session = _session_mod()
        return session.oracle_event_slr(
            event, problems, self.pool, self.spec.seed, session.EPISODE_MULTIPLIER
        )


def _oracle_event(index: int) -> float:
    ctx: _OracleContext = get_context()
    return ctx.event_slr(index)


@dataclass(frozen=True)
class _ReplayContext:
    """Broadcast payload for per-policy replay workers."""

    runner: ScenarioRunner
    policies: dict[str, SearchPolicy]
    oracle_slr: list[float]


def _replay_policy(name: str) -> AdaptationReport:
    ctx: _ReplayContext = get_context()
    return ctx.runner._run_policy(name, ctx.policies[name], ctx.oracle_slr)
