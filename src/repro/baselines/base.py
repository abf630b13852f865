"""Common interface for the search-based placement policies of §5.

Every policy (GiPH, Placeto, random variants, the EFT hybrids) exposes
``search(...) -> SearchTrace`` so the experiment harness can sweep them
uniformly and plot best-so-far curves against search steps.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from ..core.placement import PlacementProblem
from ..core.search import SearchTrace
from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective

__all__ = ["SearchPolicy", "AdaptivePolicy", "make_evaluator", "bound_handle", "rollout_of"]


class SearchPolicy(Protocol):
    """A placement-search policy evaluated step by step.

    ``evaluator`` optionally supplies the shared scoring path for the
    (problem, objective) pair — the experiment harness passes one per
    case so it can batch evaluations and report cache statistics; a
    policy creates its own when none is given.

    ``adapt`` is the streaming hook the scenario engine calls before
    re-placement with each :class:`repro.scenarios.ScenarioEvent`;
    stateless policies inherit the no-op from :class:`AdaptivePolicy`.
    """

    name: str

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        ...

    def adapt(self, event: object) -> None:
        ...


class AdaptivePolicy:
    """Default streaming-adaptation behavior for search policies.

    The scenario engine (:mod:`repro.scenarios`) announces every cluster
    or workload change through ``adapt(event)`` before asking the policy
    to re-place.  Policies that keep per-cluster state (retrainable
    placers, device statistics) override this; search-only policies
    inherit the no-op.
    """

    def adapt(self, event: object) -> None:
        return None


def make_evaluator(
    problem: PlacementProblem,
    objective: Objective,
    evaluator: PlacementEvaluator | None,
) -> PlacementEvaluator:
    """Validate a caller-supplied evaluator or create a private one."""
    if evaluator is None:
        return PlacementEvaluator(problem, objective)
    if evaluator.problem is not problem or evaluator.objective is not objective:
        raise ValueError("evaluator must be bound to the search's problem and objective")
    return evaluator


def bound_handle(problem: PlacementProblem, handle, make):
    """A per-problem cache handle (``views=`` / ``layout=``): ``handle`` when
    it was built for ``problem``, a throwaway ``make(problem)`` when omitted."""
    if handle is None:
        return make(problem)
    if handle.problem is not problem:
        raise ValueError(f"{type(handle).__name__} is bound to another problem than this call's")
    return handle


def rollout_of(trace: SearchTrace, log_probs: list) -> tuple[list, list[float], float, float, float]:
    """A search episode read as one REINFORCE rollout ``(log_probs,
    rewards, initial_value, final_value, best_value)``: step t's reward
    is the objective improvement ρ(s_t) − ρ(s_{t+1})."""
    values = trace.values
    rewards = [before - after for before, after in zip(values, values[1:])]
    return log_probs, rewards, values[0], values[-1], trace.best_value
