"""Adapter presenting a trained GiPH agent through the SearchPolicy protocol."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.agent import GiPHAgent
from ..core.features import FeatureConfig
from ..core.placement import PlacementProblem
from ..core.search import SearchTrace, run_search
from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .base import AdaptivePolicy

__all__ = ["GiPHSearchPolicy"]


class GiPHSearchPolicy(AdaptivePolicy):
    """Wraps a (trained) :class:`GiPHAgent` for the experiment harness."""

    def __init__(
        self,
        agent: GiPHAgent,
        name: str = "giph",
        feature_config: FeatureConfig | None = None,
    ) -> None:
        self.agent = agent
        self.name = name
        self.feature_config = feature_config

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        # The agent samples with its own rng; reseed it from the caller's
        # stream so evaluation sweeps are reproducible end to end.
        self.agent.rng = rng
        return run_search(
            self.agent,
            problem,
            objective,
            initial_placement,
            episode_length=episode_length,
            feature_config=self.feature_config,
            evaluator=evaluator,
        )
