"""Figure 11: relocation costs and energy-objective generality (§5.3, §6).

Left: the relocation cost GiPH's policy incurs when reacting to a
network change, as a function of the pipeline frequency — amortizing
relocation over future runs makes high-frequency pipelines tolerate
costlier moves, so incurred cost rises with frequency.

Right: swapping the reward to an energy objective, GiPH's placements
beat both random and (makespan-optimizing) HEFT on total energy.

Seed-stream layout: the two panels are independent sub-experiments —
the relocation sweep uses stages 0 (trace), 1 (training) and 2 (one
stream per scenario cell, fanned over ``backend``); the energy
comparison uses stages 3 (trace), 4 (training) and 5 (one stream per
test case, fanned over ``backend``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..baselines.giph_policy import GiPHSearchPolicy
from ..baselines.heft import heft_placement
from ..casestudy.measurements import TABLE2_RELOCATION
from ..core.agent import GiPHAgent
from ..core.placement import PlacementProblem, random_placement
from ..core.search import run_search
from ..parallel import ExecutionBackend, InlineBackend, get_context
from ..sim.metrics import energy_cost
from ..sim.objectives import EnergyObjective, MakespanObjective, Objective
from ..sim.relocation import RelocationCostModel
from .base import ExperimentReport
from .config import Scale
from .fig9 import case_study_problems, trace_cache_counter
from .reporting import banner, format_table
from .runner import stage_key, train_agent

__all__ = ["run", "RelocationAwareMakespan"]

FREQUENCIES = (0.1, 1.0, 10.0, 30.0)


class RelocationAwareMakespan:
    """Makespan plus amortized relocation cost away from a reference placement.

    ρ(M) = makespan(M) + Σ_{i: M(i) ≠ M_ref(i)} cost_i / f  — the §5.3
    trade-off: a relocation is worth its cost if it speeds up all future
    runs of a pipeline executing at frequency f.
    """

    # Noise-free makespan plus a placement-determined penalty: repeatable,
    # so PlacementEvaluator may cache values.
    deterministic = True

    def __init__(
        self,
        reference_placement: Sequence[int],
        relocation_model: RelocationCostModel,
        task_kinds: Sequence[str],
        problem: PlacementProblem,
        pipeline_frequency_hz: float,
    ) -> None:
        if pipeline_frequency_hz <= 0:
            raise ValueError("pipeline frequency must be positive")
        self.reference = tuple(reference_placement)
        self.model = relocation_model
        self.task_kinds = tuple(task_kinds)
        self.problem = problem
        self.frequency = pipeline_frequency_hz
        self._makespan = MakespanObjective()

    def relocation_cost_ms(self, placement: Sequence[int]) -> float:
        """Un-amortized total relocation cost vs the reference placement."""
        total = 0.0
        network = self.problem.network
        for i, (old, new) in enumerate(zip(self.reference, placement)):
            if old == new:
                continue
            kind = self.task_kinds[i]
            if kind not in self.model.profiles:
                continue  # pinned sensor/actuation tasks never move
            total += self.model.cost_ms(
                kind, network, network.devices[old].uid, network.devices[new].uid
            )
        return total

    def evaluate(self, cost_model, placement: Sequence[int]) -> float:
        makespan = self._makespan.evaluate(cost_model, placement)
        return makespan + self.relocation_cost_ms(placement) / self.frequency


@dataclass(frozen=True)
class _RelocationContext:
    """Broadcast payload for the per-scenario relocation-sweep cells."""

    seed: int
    agent: GiPHAgent
    scenarios: list


def _relocation_cell(scenario_index: int) -> dict[float, float]:
    """One scenario's incurred relocation cost at every pipeline frequency.

    The reference placement draws from ``[seed, 2, i]`` and each
    frequency's search from ``[seed, 2, i, f]`` — the cell's result is a
    pure function of (seed, scenario index), so cells fan out freely.
    """
    ctx: _RelocationContext = get_context()
    scenario = ctx.scenarios[scenario_index]
    problem = scenario.problem
    model = RelocationCostModel(
        TABLE2_RELOCATION,
        {uid: t for uid, t in scenario.device_types.items() if t != "CIS"},
    )
    reference = random_placement(
        problem, np.random.default_rng([ctx.seed, 2, scenario_index])
    )
    out: dict[float, float] = {}
    for freq_index, freq in enumerate(FREQUENCIES):
        objective = RelocationAwareMakespan(
            reference, model, scenario.task_kinds, problem, freq
        )
        ctx.agent.rng = np.random.default_rng([ctx.seed, 2, scenario_index, freq_index])
        trace = run_search(
            agent=ctx.agent,
            problem=problem,
            objective=objective,
            initial_placement=reference,
            episode_length=problem.graph.num_tasks,
        )
        out[freq] = objective.relocation_cost_ms(trace.best_placement)
    return out


def _relocation_sweep(scale: Scale, seed: int, backend: ExecutionBackend):
    """Left panel: incurred relocation cost vs pipeline frequency."""
    train, test, scenarios, source = case_study_problems(scale, (seed, 0), backend=backend)
    # Training is inline glue (its stream is not a fan-out cell), so the
    # backend memoizes it: a merge pass loads what the shard runs built.
    agent = backend.compute(
        "stage",
        stage_key("fig11", "relocation-train", seed, scale),
        lambda: train_agent("giph", train, np.random.default_rng([seed, 1]), scale.case_episodes),
    )

    eval_scenarios = scenarios[: max(len(test), 1)]
    context = _RelocationContext(seed=seed, agent=agent, scenarios=eval_scenarios)
    cells = backend.fanout(_relocation_cell, range(len(eval_scenarios)), context)

    incurred: dict[float, list[float]] = {f: [] for f in FREQUENCIES}
    for cell in cells:
        for freq in FREQUENCIES:
            incurred[freq].append(cell[freq])
    rows = [[freq, float(np.mean(incurred[freq]))] for freq in FREQUENCIES]
    return rows, incurred, source


@dataclass(frozen=True)
class _EnergyContext:
    """Broadcast payload for the per-case energy-comparison cells."""

    seed: int
    policy: GiPHSearchPolicy
    problems: list[PlacementProblem]


def _energy_cell(case_index: int) -> tuple[float, float, float]:
    """(giph, heft, random) total energy of one test case."""
    ctx: _EnergyContext = get_context()
    problem = ctx.problems[case_index]
    objective = EnergyObjective()
    rng = np.random.default_rng([ctx.seed, 5, case_index])
    initial = random_placement(problem, rng)
    trace = ctx.policy.search(
        problem, objective, initial, 2 * problem.graph.num_tasks, rng
    )
    return (
        trace.best_value,
        energy_cost(problem.cost_model, heft_placement(problem).placement),
        energy_cost(problem.cost_model, initial),
    )


def _energy_comparison(scale: Scale, seed: int, backend: ExecutionBackend):
    """Right panel: total energy of GiPH vs HEFT vs random placements."""
    train, test, _, source = case_study_problems(scale, (seed, 3), backend=backend)
    agent = backend.compute(
        "stage",
        stage_key("fig11", "energy-train", seed, scale),
        lambda: train_agent(
            "giph", train, np.random.default_rng([seed, 4]), scale.case_episodes,
            objective=EnergyObjective(),
        ),
    )

    context = _EnergyContext(seed=seed, policy=GiPHSearchPolicy(agent), problems=list(test))
    cells = backend.fanout(_energy_cell, range(len(test)), context)
    totals = {"giph": [], "heft": [], "random": []}
    for giph, heft, rand in cells:
        totals["giph"].append(giph)
        totals["heft"].append(heft)
        totals["random"].append(rand)
    return {k: float(np.mean(v)) for k, v in totals.items()}, source


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    backend = backend or InlineBackend()
    reloc_rows, incurred, reloc_source = _relocation_sweep(scale, seed, backend)
    energy, energy_source = _energy_comparison(scale, seed, backend)

    text = "\n".join(
        [
            banner("Fig. 11 (left): incurred relocation cost vs pipeline frequency"),
            format_table(["pipeline frequency (Hz)", "mean relocation cost (ms)"], reloc_rows),
            banner("Fig. 11 (right): total energy cost across test cases"),
            format_table(
                ["policy", "mean energy"],
                [[k, v] for k, v in sorted(energy.items(), key=lambda kv: kv[1])],
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="fig11",
        title="Relocation cost vs pipeline frequency; energy-objective comparison",
        text=text,
        data={
            "relocation_cost_by_frequency": {str(r[0]): r[1] for r in reloc_rows},
            "energy": energy,
            "trace_cache": trace_cache_counter([reloc_source, energy_source]),
        },
    )
