"""Random baselines: placement sampling and random-task + EFT (paper §5)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.placement import PlacementProblem, random_placement
from ..core.search import SearchTrace
from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .base import AdaptivePolicy, make_evaluator
from .eft import eft_relocation_search

__all__ = ["RandomPlacementPolicy", "RandomTaskEftPolicy"]


class RandomPlacementPolicy(AdaptivePolicy):
    """Random placement sampling: a fresh uniform feasible placement per
    step — "representative of the average placement quality".

    Candidates are independent of each other's scores, so the whole
    episode is drawn up front and scored in one
    :meth:`PlacementEvaluator.evaluate_many` batch.
    """

    name = "random"

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
        placements = [problem.validate_placement(initial_placement)]
        placements += [random_placement(problem, rng) for _ in range(episode_length)]
        values = evaluator.evaluate_many(placements)
        return SearchTrace.from_values(placements, values.tolist())


class RandomTaskEftPolicy(AdaptivePolicy):
    """Random task selection + EFT device selection: HEFT adapted into a
    search policy — pick a uniformly random task each step and relocate
    it to its earliest-finish-time device."""

    name = "random-task-eft"

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        def draw():
            # One call draws the stream (and leaves the generator in the
            # state) of ``episode_length`` scalar ``integers(0, n)`` draws.
            # A generator body: it runs at the first pick, after the search
            # has validated ``initial_placement``.
            yield from rng.integers(0, problem.graph.num_tasks, size=episode_length).tolist()

        tasks = draw()
        return eft_relocation_search(
            make_evaluator(problem, objective, evaluator),
            initial_placement,
            episode_length,
            lambda placement, timeline: next(tasks),
        )
