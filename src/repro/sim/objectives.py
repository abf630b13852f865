"""Objective functions ρ(M | G, N) for the placement search (paper §3, §6).

GiPH's reward is objective-agnostic: any callable mapping a placement to
a scalar where *lower is better* plugs into the MDP.  Three objectives
from the paper are provided: makespan (the main experiments), total
computation+communication cost (§B.8), and energy (Fig. 11 right).
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .latency import CostModel
from .metrics import energy_cost, total_cost

__all__ = ["Objective", "MakespanObjective", "TotalCostObjective", "EnergyObjective", "OBJECTIVES"]


class Objective(Protocol):
    """A performance criterion; smaller values are better placements.

    ``deterministic`` declares whether repeated evaluations of the same
    placement return the same value — the contract that lets
    :class:`repro.runtime.PlacementEvaluator` cache results.  Noisy
    objectives (which re-sample realizations per call) must report
    ``False``; objectives lacking the attribute are treated as
    non-deterministic.
    """

    deterministic: bool

    def evaluate(self, cost_model: CostModel, placement: Sequence[int]) -> float:
        """Score ``placement`` for the instance bound to ``cost_model``."""
        ...


class MakespanObjective:
    """Application completion time via the runtime simulator
    (:class:`repro.runtime.fastsim.FastSimulator`).

    With ``noise`` > 0 each evaluation samples computation/communication
    realizations (±noise uniform), modeling real-system variability; the
    rng advances across calls, so repeated evaluations differ, exactly as
    the paper's noisy experiments do.
    """

    def __init__(self, noise: float = 0.0, rng: np.random.Generator | None = None) -> None:
        if noise < 0 or noise >= 1:
            raise ValueError("noise must be in [0, 1)")
        if noise > 0 and rng is None:
            raise ValueError("noisy makespan needs an rng")
        self.noise = noise
        self.rng = rng

    @property
    def deterministic(self) -> bool:
        """Noise-free evaluations are repeatable (hence cacheable)."""
        return self.noise == 0.0

    def reseeded(self, rng: np.random.Generator) -> "MakespanObjective":
        """Copy of this objective drawing noise from ``rng`` instead.

        The hook behind noise-resampling parallel modes: rather than
        sharing one mutable noise stream across episodes/processes (which
        would make results depend on execution order), each unit of work
        derives its own stream and asks for a reseeded objective copy.
        Noise-free objectives return an equivalent noise-free copy.
        """
        return MakespanObjective(
            noise=self.noise, rng=rng if self.noise > 0 else None
        )

    def evaluate(self, cost_model: CostModel, placement: Sequence[int]) -> float:
        # Deferred: ``repro.runtime`` imports this module.
        from ..core.placement import PlacementProblem
        from ..runtime.fastsim import FastSimulator

        problem = PlacementProblem(cost_model.graph, cost_model.network, cost_model)
        row = problem.validate_placement(placement)
        return FastSimulator(problem).makespans([row], self.noise, self.rng)[0]


class TotalCostObjective:
    """Σ compute + Σ communication cost (paper §B.8)."""

    deterministic = True

    def evaluate(self, cost_model: CostModel, placement: Sequence[int]) -> float:
        return total_cost(cost_model, placement)


class EnergyObjective:
    """Energy-weighted cost (paper Fig. 11 right)."""

    deterministic = True

    def evaluate(self, cost_model: CostModel, placement: Sequence[int]) -> float:
        return energy_cost(cost_model, placement)


#: Objective name -> class: the one table behind ``repro train --objective``
#: and :attr:`repro.scenarios.ScenarioSpec.objective`.
OBJECTIVES: dict[str, type] = {
    "makespan": MakespanObjective,
    "total-cost": TotalCostObjective,
    "energy": EnergyObjective,
}
