"""The placement-search MDP (paper §4.1) with GiPH's action masks (§4.2.3).

States are feasible placements; an action (v_i, d_j) relocates task v_i
onto device d_j; the reward is the objective improvement
ρ(s_t) − ρ(s_{t+1}) (lower objective = better placement, so positive
reward means the move helped).

All scoring flows through a :class:`repro.runtime.PlacementEvaluator`
(one noise-free timeline per state is shared between the objective and
gpNet feature construction, and repeat placements hit its LRU cache);
``step`` rebuilds the gpNet incrementally via
:meth:`GpNetBuilder.update` since only one task moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .features import FeatureConfig, GpNetBuilder
from .gpnet import GpNet
from .placement import PlacementProblem, random_placement

__all__ = ["EnvState", "PlacementEnv", "default_episode_length"]


def default_episode_length(problem: PlacementProblem) -> int:
    """2·|V| steps — empirically enough to converge (paper §5)."""
    return 2 * problem.graph.num_tasks


@dataclass(frozen=True)
class EnvState:
    """One MDP state: the placement plus its gpNet view and score."""

    placement: tuple[int, ...]
    gpnet: GpNet
    objective_value: float
    last_moved_task: int | None
    step: int

    @property
    def num_actions(self) -> int:
        return self.gpnet.num_nodes


class PlacementEnv:
    """Search MDP for one problem instance.

    Parameters
    ----------
    problem: the (G, N) instance.
    objective: performance criterion ρ (lower is better).
    episode_length: steps per episode (default 2·|V|).
    feature_config: gpNet feature options.
    evaluator: a shared :class:`PlacementEvaluator` for this (problem,
        objective) pair — pass one to pool its caches across envs (e.g.
        across training episodes); a private one is created otherwise.
    builder: a shared :class:`GpNetBuilder` for this problem — its
        per-instance precompute (static features, edge-block layout) is
        paid once when reused across episodes; created privately
        otherwise.  Must match ``feature_config`` when both are given.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        objective: Objective,
        episode_length: int | None = None,
        feature_config: FeatureConfig | None = None,
        evaluator: PlacementEvaluator | None = None,
        builder: GpNetBuilder | None = None,
    ) -> None:
        self.problem = problem
        self.objective = objective
        self.episode_length = (
            default_episode_length(problem) if episode_length is None else episode_length
        )
        if self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if evaluator is None:
            evaluator = PlacementEvaluator(problem, objective)
        elif evaluator.problem is not problem or evaluator.objective is not objective:
            raise ValueError("evaluator must be bound to this env's problem and objective")
        self.evaluator = evaluator
        if builder is None:
            builder = GpNetBuilder(problem, feature_config)
        elif builder.problem is not problem or builder.config != (
            feature_config or FeatureConfig()
        ):
            raise ValueError("builder must be bound to this env's problem and feature config")
        self.builder = builder
        self._state: EnvState | None = None

    # -- episode control -----------------------------------------------------------

    def reset(
        self,
        initial_placement: Sequence[int] | None = None,
        rng: np.random.Generator | None = None,
    ) -> EnvState:
        """Start an episode from ``initial_placement`` (or a random one)."""
        if initial_placement is None:
            if rng is None:
                raise ValueError("reset needs either an initial placement or an rng")
            initial_placement = random_placement(self.problem, rng)
        placement = self.problem.validate_placement(initial_placement)
        self._state = self._make_state(placement, last_moved=None, step=0)
        return self._state

    @property
    def state(self) -> EnvState:
        if self._state is None:
            raise RuntimeError("call reset() before accessing the state")
        return self._state

    def _make_state(
        self,
        placement: tuple[int, ...],
        last_moved: int | None,
        step: int,
        prev_gpnet: GpNet | None = None,
    ) -> EnvState:
        timeline = self.evaluator.timeline(placement)
        placement = timeline.placement  # validated once, by the lookup that made it
        if prev_gpnet is not None and last_moved is not None:
            gpnet = self.builder.update(prev_gpnet, placement, last_moved, timeline=timeline)
        else:
            gpnet = self.builder.build(placement, timeline=timeline)
        value = self.evaluator.evaluate(placement)
        return EnvState(placement, gpnet, value, last_moved, step)

    # -- masks ------------------------------------------------------------------------

    def action_mask(self, state: EnvState | None = None) -> np.ndarray:
        """Boolean mask of selectable gpNet nodes (True = allowed).

        Masks no-op actions (current pivots) and all options of the task
        moved in the previous step (§4.2.3).  If that leaves nothing —
        possible only in degenerate instances — masks are relaxed in
        order (repeat-task first, then no-op) so an action always exists.
        """
        state = state or self.state
        movable = ~state.gpnet.is_pivot
        mask = movable
        if state.last_moved_task is not None:
            mask = movable & (state.gpnet.task_of != state.last_moved_task)
        if not mask.any():
            mask = movable if movable.any() else np.ones(state.gpnet.num_nodes, dtype=bool)
        return mask

    # -- transitions ------------------------------------------------------------------

    def step(self, action_node: int) -> tuple[EnvState, float, bool]:
        """Apply gpNet node ``action_node`` as a relocation; return
        (next_state, reward, done)."""
        state = self.state
        if not 0 <= action_node < state.gpnet.num_nodes:
            raise ValueError(f"action node {action_node} out of range")
        task, device = state.gpnet.action_of(action_node)
        placement = list(state.placement)
        placement[task] = device
        next_state = self._make_state(
            tuple(placement), last_moved=task, step=state.step + 1, prev_gpnet=state.gpnet
        )
        reward = state.objective_value - next_state.objective_value
        done = next_state.step >= self.episode_length
        self._state = next_state
        return next_state, reward, done
