"""The GiPH placement agent: GNN embedding + score policy (paper Fig. 3)."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..nn import Parameter, Tensor, no_grad
from ..runtime.evaluator import PlacementEvaluator
from .env import EnvState, PlacementEnv
from .features import FeatureConfig, GpNetBuilder
from .gnn import GpNetEmbedding, make_embedding
from .placement import PlacementProblem
from .policy import ScorePolicy

__all__ = ["GiPHAgent"]


class GiPHAgent:
    """Selects task-relocation actions from gpNet states.

    Parameters
    ----------
    embedding: a :class:`GpNetEmbedding` (or a ``kind`` string for
        :func:`repro.core.gnn.make_embedding`).
    rng: random source for parameter init and action sampling.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        embedding: GpNetEmbedding | str = "giph",
    ) -> None:
        if isinstance(embedding, str):
            embedding = make_embedding(embedding, rng)
        self.embedding = embedding
        self.policy = ScorePolicy(embedding.out_dim, rng)
        self.rng = rng

    def parameters(self) -> Iterator[Parameter]:
        yield from self.embedding.parameters()
        yield from self.policy.parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {f"embedding.{k}": v for k, v in self.embedding.state_dict().items()}
        state.update({f"policy.{k}": v for k, v in self.policy.state_dict().items()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.embedding.load_state_dict(
            {k[len("embedding.") :]: v for k, v in state.items() if k.startswith("embedding.")}
        )
        self.policy.load_state_dict(
            {k[len("policy.") :]: v for k, v in state.items() if k.startswith("policy.")}
        )

    # -- training (the agent side of ReinforceTrainer) ---------------------------

    def handle(
        self, problem: PlacementProblem, feature_config: FeatureConfig | None = None
    ) -> GpNetBuilder:
        """What this agent precomputes per problem: the gpNet builder."""
        return GpNetBuilder(problem, feature_config)

    def rollout(
        self,
        evaluator: PlacementEvaluator,
        handle: GpNetBuilder,
        rng: np.random.Generator,
        episode_length: int | None = None,
    ) -> tuple[list[Tensor], list[float], float, float, float]:
        """One on-policy episode from a random placement drawn from
        ``rng`` (``None`` = 2|V| steps): ``(log_probs, rewards,
        initial_value, final_value, best_value)``."""
        env = PlacementEnv(
            evaluator.problem,
            evaluator.objective,
            episode_length=episode_length,
            feature_config=handle.config,
            evaluator=evaluator,
            builder=handle,
        )
        state = env.reset(rng=rng)
        initial_value = state.objective_value
        best_value = initial_value
        log_probs: list[Tensor] = []
        rewards: list[float] = []
        done = False
        while not done:
            action, log_prob = self.act(env, state)
            state, reward, done = env.step(action)
            log_probs.append(log_prob)
            rewards.append(reward)
            best_value = min(best_value, state.objective_value)
        return log_probs, rewards, initial_value, state.objective_value, best_value

    # -- acting ---------------------------------------------------------------

    def act(self, env: PlacementEnv, state: EnvState) -> tuple[int, Tensor]:
        """Sample a gpNet node (action); returns (node, log-prob tensor)."""
        embeddings = self.embedding(state.gpnet)
        mask = env.action_mask(state)
        return self.policy.sample(embeddings, mask, self.rng)

    def act_inference(self, env: PlacementEnv, state: EnvState) -> int:
        """Action selection without building an autograd graph (evaluation)."""
        with no_grad():
            action, _ = self.act(env, state)
        return action
