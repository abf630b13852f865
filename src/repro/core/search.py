"""Placement search: running an agent's episode on a problem (paper §4).

At evaluation time each search-based policy starts from a given initial
placement, takes ``episode_length`` relocation steps, and reports the
best placement seen so far after every step — the series plotted in
Figs. 4, 7(a) and 9(a).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .agent import GiPHAgent
from .env import PlacementEnv
from .placement import PlacementProblem

__all__ = ["SearchTrace", "run_search"]


@dataclass(frozen=True)
class SearchTrace:
    """Outcome of one search episode.

    ``best_over_time[t]`` is the best objective value found within the
    first ``t`` steps (index 0 = initial placement), so the series is
    non-increasing.  ``relocation_counts[i]`` counts how often task ``i``
    was relocated (Fig. 7b).
    """

    best_placement: tuple[int, ...]
    best_value: float
    best_over_time: tuple[float, ...]
    values: tuple[float, ...]
    relocation_counts: tuple[int, ...]

    @property
    def num_steps(self) -> int:
        return len(self.values) - 1

    @classmethod
    def from_values(
        cls,
        placements: Sequence[tuple[int, ...]],
        values: Sequence[float],
        relocation_counts: Sequence[int] | None = None,
    ) -> "SearchTrace":
        """The trace of a placement/value series (index 0 = initial
        placement; ``relocation_counts`` defaults to all zero)."""
        if len(placements) != len(values) or not values:
            raise ValueError("placements and values must be equal-length and non-empty")
        best_over_time: list[float] = []
        best_value = float("inf")
        best_placement = placements[0]
        for placement, value in zip(placements, values):
            if value < best_value:
                best_value = value
                best_placement = placement
            best_over_time.append(best_value)
        return cls(
            best_placement=tuple(best_placement),
            best_value=best_value,
            best_over_time=tuple(best_over_time),
            values=tuple(values),
            relocation_counts=tuple(relocation_counts or [0] * len(placements[0])),
        )


def run_search(
    agent: GiPHAgent,
    problem: PlacementProblem,
    objective: Objective,
    initial_placement: Sequence[int],
    episode_length: int | None = None,
    feature_config=None,
    evaluator: PlacementEvaluator | None = None,
) -> SearchTrace:
    """Run one evaluation episode of ``episode_length`` steps (default
    2·|V|); no learning happens here.

    ``evaluator`` optionally shares a :class:`PlacementEvaluator` (and
    its caches) across episodes of the same (problem, objective) pair.
    """
    env = PlacementEnv(
        problem,
        objective,
        episode_length=episode_length,
        feature_config=feature_config,
        evaluator=evaluator,
    )
    state = env.reset(initial_placement=initial_placement)
    placements = [state.placement]
    values = [state.objective_value]
    relocations = [0] * problem.graph.num_tasks

    done = False
    while not done:
        action = agent.act_inference(env, state)
        task, _ = state.gpnet.action_of(action)
        state, _, done = env.step(action)
        if state.placement != placements[-1]:
            relocations[task] += 1
        placements.append(state.placement)
        values.append(state.objective_value)

    return SearchTrace.from_values(placements, values, relocations)
