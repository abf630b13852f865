"""Shared train/evaluate machinery for the experiment modules.

Evaluation follows §5's protocol: all search policies start each test
case from the same random initial placement, run for 2·|V| steps, and
report the best-so-far objective after every step, normalized to SLR
(makespan experiments) via the CP_MIN lower bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..baselines.base import AdaptivePolicy, SearchPolicy, make_evaluator
from ..baselines.giph_policy import GiPHSearchPolicy
from ..baselines.heft import heft_placement
from ..baselines.placeto import PlacetoAgent
from ..baselines.task_eft import TaskEftAgent
from ..core.agent import GiPHAgent
from ..core.placement import PlacementProblem, random_placement
from ..core.reinforce import ReinforceConfig, ReinforceTrainer
from ..core.search import SearchTrace
from ..parallel import ExecutionBackend, InlineBackend, get_context
from ..runtime.evaluator import EvaluatorStats, PlacementEvaluator
from ..sim.metrics import cp_min_lower_bound
from ..sim.objectives import MakespanObjective, Objective
from ..telemetry import metrics, span

__all__ = [
    "HeftPolicy",
    "EvalResult",
    "TrainSpec",
    "stage_key",
    "train_agent",
    "train_policy_grid",
    "evaluate_policies",
    "average_curves",
]


def stage_key(experiment: str, stage: str, seed: int, scale) -> dict:
    """Store key for an experiment's non-fanned stage (see
    :meth:`repro.parallel.ExecutionBackend.compute`).

    Includes the *full* scale parameters, not just the preset name —
    two ad-hoc scales sharing a name must never share memoized stages.
    """
    import dataclasses

    return {
        "experiment": experiment,
        "stage": stage,
        "seed": seed,
        "scale": dataclasses.asdict(scale),
    }


class HeftPolicy(AdaptivePolicy):
    """HEFT wrapped as a (static) search policy: its placement is
    computed once and reported as a constant best-so-far curve."""

    name = "heft"

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        evaluator = make_evaluator(problem, objective, evaluator)
        placement = heft_placement(problem).placement
        value = evaluator.evaluate(placement)
        return SearchTrace.from_values(
            [placement] * (episode_length + 1), [value] * (episode_length + 1)
        )


def train_agent(
    kind: str,
    problems: Sequence[PlacementProblem],
    rng: np.random.Generator,
    episodes: int,
    objective: Objective | None = None,
    embedding: str = "giph",
) -> GiPHAgent | TaskEftAgent | PlacetoAgent:
    """A fresh agent of ``kind`` — ``"giph"`` (any GNN variant, via
    ``embedding``), ``"task-eft"`` or ``"placeto"`` — initialised from
    ``rng`` and trained on ``problems`` by the one REINFORCE trainer."""
    if kind == "giph":
        agent = GiPHAgent(rng, embedding=embedding)
    elif kind == "task-eft":
        agent = TaskEftAgent(rng)
    elif kind == "placeto":
        counts = {p.network.num_devices for p in problems}
        if len(counts) != 1:
            raise ValueError(
                f"Placeto requires a fixed device count, got {sorted(counts)} — "
                "this is precisely the limitation GiPH lifts"
            )
        agent = PlacetoAgent(rng, num_devices=counts.pop())
    else:
        raise ValueError(f"unknown agent kind {kind!r}")
    trainer = ReinforceTrainer(
        agent, objective or MakespanObjective(), ReinforceConfig(episodes=episodes)
    )
    trainer.train(problems, rng, episodes=episodes)
    return agent


@dataclass(frozen=True)
class TrainSpec:
    """One independently trainable cell of an experiment's policy grid.

    ``stream`` is the cell's full seed-derivation key (fed to
    ``default_rng(list(stream))``), so the cell's randomness is a pure
    function of its identity — never of which other cells train, in what
    order, or on which worker.  ``problems_key`` indexes the problem set
    the cell trains on (experiments with several datasets broadcast them
    all once and point each cell at one).
    """

    name: str
    kind: str  # "giph" | "task-eft" | "placeto"
    stream: tuple[int, ...]
    episodes: int
    problems_key: int = 0
    embedding: str = "giph"
    objective: Objective | None = None


@dataclass(frozen=True)
class _TrainGridContext:
    """Broadcast payload for the per-cell training workers."""

    problem_sets: tuple
    specs: tuple


def _train_grid_cell(index: int) -> SearchPolicy:
    """Train one :class:`TrainSpec` cell from its own derived stream."""
    ctx: _TrainGridContext = get_context()
    spec: TrainSpec = ctx.specs[index]
    problems = ctx.problem_sets[spec.problems_key]
    rng = np.random.default_rng(list(spec.stream))
    with span("train.cell"):
        agent = train_agent(
            spec.kind, problems, rng, spec.episodes,
            objective=spec.objective, embedding=spec.embedding,
        )
    # The baseline agents are search policies themselves.
    return GiPHSearchPolicy(agent, name=spec.name) if spec.kind == "giph" else agent


def train_policy_grid(
    problem_sets: Sequence[Sequence[PlacementProblem]],
    specs: Sequence[TrainSpec],
    backend: ExecutionBackend | None = None,
) -> dict[str, SearchPolicy]:
    """Train every :class:`TrainSpec` cell, fanned out over ``backend``.

    Returns ``{spec.name: trained policy}`` in spec order.  Each cell
    draws exclusively from its own ``spec.stream``, so the mapping is
    bit-identical for any worker count and any backend (the tentpole
    contract of :mod:`repro.parallel`).
    """
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError("TrainSpec names must be unique within a grid")
    context = _TrainGridContext(
        problem_sets=tuple(list(p) for p in problem_sets), specs=tuple(specs)
    )
    backend = backend or InlineBackend()
    with span("train.grid"):
        policies = backend.fanout(_train_grid_cell, range(len(specs)), context)
    return dict(zip(names, policies))


@dataclass(frozen=True)
class EvalResult:
    """Evaluation sweep output.

    ``curves[name][t]`` — mean normalized best-so-far value after t steps
    (t=0 is the shared initial placement); ``finals[name]`` — per-case
    final normalized values; ``traces[name]`` — raw per-case traces.
    ``evaluator_stats[name]`` / ``search_seconds[name]`` — scoring-path
    counters and wall time aggregated over the sweep's cases (see
    :func:`repro.experiments.reporting.format_evaluator_stats`).
    ``gnn[name]`` — ``{"forwards", "backwards", "gnn_seconds"}``:
    the registry's ``gnn.*`` counts charged to each policy's searches,
    GNN passes (deterministic ints) and forward seconds (wall-clock,
    volatile).
    """

    curves: dict[str, np.ndarray]
    finals: dict[str, list[float]]
    traces: dict[str, list[SearchTrace]]
    evaluator_stats: dict[str, EvaluatorStats] = field(default_factory=dict)
    search_seconds: dict[str, float] = field(default_factory=dict)
    gnn: dict[str, dict[str, float]] = field(default_factory=dict)

    def mean_final(self, name: str) -> float:
        return float(np.mean(self.finals[name]))


def average_curves(curves: list[np.ndarray]) -> np.ndarray:
    """Average best-so-far curves of different lengths by extending each
    with its final value (a case that converged early stays converged)."""
    if not curves:
        raise ValueError("no curves to average")
    length = max(len(c) for c in curves)
    padded = [
        np.concatenate([c, np.full(length - len(c), c[-1])]) if len(c) < length else np.asarray(c)
        for c in curves
    ]
    return np.mean(padded, axis=0)


@dataclass(frozen=True)
class _EvalContext:
    """Broadcast payload for the per-case evaluation workers."""

    policies: dict[str, SearchPolicy]
    problems: list[PlacementProblem]
    case_seeds: list[int]
    noise: float
    episode_multiplier: int
    normalize_slr: bool
    objective: Objective | None


def _evaluate_case(case_index: int) -> dict[str, tuple]:
    """One test case: every policy searched from a shared initial placement.

    Fully determined by ``case_seeds[case_index]`` (each policy reseeds
    from the case's derived streams), so cases may run on any worker in
    any order without changing the sweep's result.
    """
    ctx: _EvalContext = get_context()
    problem = ctx.problems[case_index]
    case_rng = np.random.default_rng(ctx.case_seeds[case_index])
    initial = random_placement(problem, case_rng)
    steps = ctx.episode_multiplier * problem.graph.num_tasks
    denom = cp_min_lower_bound(problem.cost_model) if ctx.normalize_slr else 1.0
    forwards, backwards, seconds = (
        metrics().counter(f"gnn.{name}") for name in ("forwards", "backwards", "seconds")
    )
    out: dict[str, tuple] = {}
    with span("eval.case"):
        for name, policy in ctx.policies.items():
            if ctx.objective is not None:
                case_objective: Objective = ctx.objective
            elif ctx.noise > 0.0:
                case_objective = MakespanObjective(
                    noise=ctx.noise, rng=np.random.default_rng(case_rng.integers(0, 2**63))
                )
            else:
                case_objective = MakespanObjective()
            evaluator = PlacementEvaluator(problem, case_objective)
            forwards0, backwards0, seconds0 = forwards.value, backwards.value, seconds.value
            began = time.perf_counter()
            trace = policy.search(
                problem,
                case_objective,
                initial,
                steps,
                np.random.default_rng(case_rng.integers(0, 2**63)),
                evaluator=evaluator,
            )
            elapsed = time.perf_counter() - began
            out[name] = (
                np.asarray(trace.best_over_time) / denom,
                trace.best_value / denom,
                trace,
                evaluator.stats,
                elapsed,
                # Delta of the process-global GNN counters over this search:
                # the search runs single-threaded inside this task, so the
                # delta is exactly the policy's own embedding work.
                {
                    "forwards": int(forwards.value - forwards0),
                    "backwards": int(backwards.value - backwards0),
                    "gnn_seconds": seconds.value - seconds0,
                },
            )
    return out


def evaluate_policies(
    policies: Mapping[str, SearchPolicy],
    problems: Sequence[PlacementProblem],
    rng: np.random.Generator,
    noise: float = 0.0,
    episode_multiplier: int = 2,
    normalize_slr: bool = True,
    objective: Objective | None = None,
    backend: ExecutionBackend | None = None,
) -> EvalResult:
    """Run every policy on every test case from a shared initial placement.

    With ``normalize_slr`` (makespan experiments) values are divided by
    the CP_MIN lower bound; otherwise raw objective values are reported
    (cost/energy experiments pass their own ``objective``).

    The test cases fan out through ``backend``.  Case seeds are drawn
    from ``rng`` up front in case order (the same draws the serial loop
    makes), every per-case search reseeds from those, and results are
    merged in case order — so curves, finals, and traces are
    bit-identical for any worker count and any backend.  Only
    ``search_seconds`` is wall-clock and therefore run-dependent.
    """
    if objective is not None and not getattr(objective, "deterministic", False):
        # Rejected at any worker count: cases run against pickled copies
        # of the objective (worker-count independence), so a shared noise
        # rng would be frozen per call / sampled in worker-dependent
        # order instead of advancing across cases.
        raise ValueError(
            "evaluate_policies cannot share one non-deterministic objective "
            "across cases; use the per-case `noise` parameter, which derives "
            "an independent noise stream per (case, policy)"
        )
    curves: dict[str, list[np.ndarray]] = {name: [] for name in policies}
    finals: dict[str, list[float]] = {name: [] for name in policies}
    traces: dict[str, list[SearchTrace]] = {name: [] for name in policies}
    stats: dict[str, EvaluatorStats] = {name: EvaluatorStats() for name in policies}
    seconds: dict[str, float] = {name: 0.0 for name in policies}
    gnn: dict[str, dict[str, float]] = {
        name: {"forwards": 0, "backwards": 0, "gnn_seconds": 0.0} for name in policies
    }

    context = _EvalContext(
        policies=dict(policies),
        problems=list(problems),
        case_seeds=[int(rng.integers(0, 2**63)) for _ in range(len(problems))],
        noise=noise,
        episode_multiplier=episode_multiplier,
        normalize_slr=normalize_slr,
        objective=objective,
    )
    with span("eval.sweep"):
        case_results = (backend or InlineBackend()).fanout(
            _evaluate_case, range(len(problems)), context
        )

    for case_out in case_results:
        for name, (curve, final, trace, case_stats, elapsed, case_gnn) in case_out.items():
            curves[name].append(curve)
            finals[name].append(final)
            traces[name].append(trace)
            stats[name].merge(case_stats)
            seconds[name] += elapsed
            for key, value in case_gnn.items():
                gnn[name][key] += value

    # Instance-scoped evaluator counters roll up into the process
    # registry here, at the merge point (gnn counters live in the
    # registry and ship with task deltas already — absorbing them again
    # would double-count).
    sweep_total = EvaluatorStats()
    for merged in stats.values():
        sweep_total.merge(merged)
    metrics().absorb("evaluator", sweep_total.counters())

    return EvalResult(
        curves={name: average_curves(cs) for name, cs in curves.items()},
        finals=finals,
        traces=traces,
        evaluator_stats=stats,
        search_seconds=seconds,
        gnn=gnn,
    )
