"""REINFORCE training of the GiPH policy (paper §4.1, Appendix B.7).

Per episode, a problem (G, N) is sampled from the training set and the
agent searches from a random placement.  The policy gradient uses
discounted returns with the paper's variance-reduction baseline: "the
average reward before step t in an episode".

    θ ← θ + α Σ_t γ^t ∇ log π(a_t|s_t) (Σ_{t'≥t} γ^{t'-t} r_{t'} − b_t)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..nn import Adam, Tensor, stack
from ..runtime.evaluator import EvaluatorPool, EvaluatorStats, PlacementEvaluator
from ..telemetry import metrics, span
from ..sim.objectives import Objective
from .agent import GiPHAgent
from .env import PlacementEnv
from .features import FeatureConfig, GpNetBuilder
from .placement import PlacementProblem

__all__ = [
    "ReinforceConfig",
    "EpisodeStats",
    "ReinforceTrainer",
    "discounted_returns",
    "collect_episode",
    "episode_loss",
]


def discounted_returns(rewards: Sequence[float], gamma: float) -> np.ndarray:
    """G_t = Σ_{t'≥t} γ^{t'-t} r_{t'} (suffix scan)."""
    returns = np.zeros(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        returns[t] = acc
    return returns


def average_reward_baseline(rewards: Sequence[float]) -> np.ndarray:
    """b_t = mean of rewards before step t (b_0 = 0) — §B.7's baseline."""
    baseline = np.zeros(len(rewards))
    if len(rewards) > 1:
        cums = np.cumsum(rewards)
        t = np.arange(1, len(rewards))
        baseline[1:] = cums[:-1] / t
    return baseline


@dataclass(frozen=True)
class ReinforceConfig:
    """Training hyperparameters (paper §5 experiment details).

    learning_rate 0.01 with Adam, γ = 0.97, 200 episodes; grad clipping
    is an implementation stabilizer for the NumPy substrate.
    """

    learning_rate: float = 0.01
    gamma: float = 0.97
    episodes: int = 200
    episode_length: int | None = None  # None -> 2|V| per problem
    grad_clip: float = 10.0
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")


def collect_episode(
    agent: GiPHAgent, env: PlacementEnv, rng: np.random.Generator
) -> tuple[list[Tensor], list[float], float, float, float]:
    """Roll out one on-policy episode.

    Returns ``(log_probs, rewards, initial_value, final_value,
    best_value)``.  Shared by the serial trainer and the batched worker
    path (:mod:`repro.parallel.episodes`) so their rollout semantics
    cannot drift apart.
    """
    state = env.reset(rng=rng)
    initial_value = state.objective_value
    best_value = initial_value
    log_probs: list[Tensor] = []
    rewards: list[float] = []
    done = False
    while not done:
        action, log_prob = agent.act(env, state)
        state, reward, done = env.step(action)
        log_probs.append(log_prob)
        rewards.append(reward)
        best_value = min(best_value, state.objective_value)
    return log_probs, rewards, initial_value, state.objective_value, best_value


def episode_loss(
    log_probs: Sequence[Tensor], rewards: Sequence[float], config: "ReinforceConfig"
) -> Tensor:
    """-Σ_t γ^t log π(a_t|s_t) · advantage_t for one episode.

    The per-step advantages are assembled as one NumPy vector and
    applied to the stacked log-prob tensor in a single fused
    multiply-sum, so the backward pass scatters every step's scalar
    gradient in one array op instead of walking a Python chain of
    per-step Tensor sums.  Each log-prob still receives exactly
    ``-advantage_t`` — bit-identical to the gradient the per-step sum
    delivered, so training results are unchanged.
    """
    if len(log_probs) != len(rewards):
        raise ValueError("log_probs and rewards must have equal lengths")
    if not log_probs:
        return Tensor(np.zeros(()))
    returns = discounted_returns(rewards, config.gamma)
    baseline = average_reward_baseline(rewards)
    discount = config.gamma ** np.arange(len(rewards))
    advantages = discount * (returns - baseline)
    return (stack(list(log_probs), axis=0) * Tensor(-advantages)).sum()


@dataclass(frozen=True)
class EpisodeStats:
    """Per-episode training record.

    ``grad_norm`` is the pre-clip L2 norm of *this episode's* policy
    gradient in both training modes.  In serial mode that gradient is
    also the applied update; in batched mode the applied update is the
    slot-ordered mean of the round's gradients (clipped once), whose
    norm is not recorded per episode.
    """

    episode: int
    initial_value: float
    final_value: float
    best_value: float
    total_reward: float
    grad_norm: float


class ReinforceTrainer:
    """Trains an agent across a distribution of placement problems."""

    def __init__(
        self,
        agent: GiPHAgent,
        objective: Objective,
        config: ReinforceConfig | None = None,
        max_cached_problems: int = 128,
    ) -> None:
        self.agent = agent
        self.objective = objective
        self.config = config or ReinforceConfig()
        self.optimizer = Adam(list(agent.parameters()), lr=self.config.learning_rate)
        self.history: list[EpisodeStats] = []
        # One evaluator and one gpNet builder per problem instance,
        # shared across the episode batch: the training set repeats
        # problems, so cached placement values/timelines and the
        # builder's static per-instance precompute pay off across
        # episodes instead of being rebuilt each one.  The two caches
        # cover the same problems, so the evaluator pool's LRU drives
        # both: its eviction hook drops the paired builder, keeping a
        # long problem sweep from pinning a builder whose evaluator is
        # gone (or vice versa).
        self._evaluators = EvaluatorPool(
            objective, max_problems=max_cached_problems, on_evict=self._drop_builder
        )
        self._builders: dict[int, GpNetBuilder] = {}

    def _drop_builder(self, problem_id: int, evaluator: PlacementEvaluator) -> None:
        self._builders.pop(problem_id, None)

    def evaluator_for(self, problem: PlacementProblem) -> PlacementEvaluator:
        """The shared scoring path for ``problem`` (created on first use)."""
        return self._evaluators.get(problem)

    def evaluator_stats(self) -> EvaluatorStats:
        """Aggregate cache/eval counters across all training problems."""
        return self._evaluators.stats()

    def _builder_for(self, problem: PlacementProblem) -> GpNetBuilder:
        # Touch (or create) the evaluator first so the pair's recency in
        # the pool's LRU moves in lockstep with builder use.
        self._evaluators.get(problem)
        builder = self._builders.get(id(problem))
        if builder is None:
            builder = GpNetBuilder(problem, self.config.feature_config)
            self._builders[id(problem)] = builder
        return builder

    def run_episode(self, problem: PlacementProblem, rng: np.random.Generator) -> EpisodeStats:
        """Collect one on-policy episode and apply a gradient update."""
        cfg = self.config
        env = PlacementEnv(
            problem,
            self.objective,
            episode_length=cfg.episode_length,
            feature_config=cfg.feature_config,
            evaluator=self.evaluator_for(problem),
            builder=self._builder_for(problem),
        )
        with span("reinforce.episode"):
            log_probs, rewards, initial_value, final_value, best_value = collect_episode(
                self.agent, env, rng
            )
            loss = episode_loss(log_probs, rewards, cfg)
        with span("reinforce.grad"):
            self.optimizer.zero_grad()
            loss.backward()
            grad_norm = self.optimizer.clip_grad_norm(cfg.grad_clip)
            self.optimizer.step()

        metrics().counter("reinforce.episodes").inc()
        stats = EpisodeStats(
            episode=len(self.history),
            initial_value=initial_value,
            final_value=final_value,
            best_value=best_value,
            total_reward=float(sum(rewards)),
            grad_norm=grad_norm,
        )
        self.history.append(stats)
        return stats

    def train(
        self,
        problems: Sequence[PlacementProblem],
        rng: np.random.Generator,
        episodes: int | None = None,
        callback: Callable[[EpisodeStats], None] | None = None,
        *,
        batch_size: int = 1,
        backend=None,
    ) -> list[EpisodeStats]:
        """Run ``episodes`` episodes, sampling a problem per episode.

        ``batch_size`` (K) switches to batched collection: K episodes
        are rolled out against a snapshot of the current weights — over
        ``backend``'s persistent pool (``None`` = inline) — and their
        gradients averaged into one clipped optimizer step.  K=1 is
        exactly today's serial semantics (one episode, one step, all
        randomness from ``rng``), so existing callers are unchanged;
        with K>1 the per-episode randomness derives from ``(round seed,
        slot)`` streams, making the result bit-identical for any worker
        count.

        Update rounds are inherently sequential, so only the inline/fork
        backends apply — a shard backend's ``pool`` raises cleanly.
        """
        if not problems:
            raise ValueError("training needs at least one problem")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        total = self.config.episodes if episodes is None else episodes
        if total < 1:
            raise ValueError("episodes must be >= 1")
        if batch_size == 1:
            # Serial semantics: parallel episode collection needs K > 1
            # (a single-episode update has nothing to fan out).
            stats = []
            for _ in range(total):
                problem = problems[int(rng.integers(0, len(problems)))]
                ep = self.run_episode(problem, rng)
                stats.append(ep)
                if callback is not None:
                    callback(ep)
            return stats
        from ..parallel.backends import InlineBackend

        return self._train_batched(
            list(problems), rng, total, callback, batch_size, backend or InlineBackend()
        )

    def _train_batched(
        self,
        problems: list[PlacementProblem],
        rng: np.random.Generator,
        total: int,
        callback: Callable[[EpisodeStats], None] | None,
        batch_size: int,
        backend,
    ) -> list[EpisodeStats]:
        import tempfile

        from ..parallel.episodes import (
            BatchContext,
            EpisodePayload,
            rollout_episode,
            write_snapshot,
        )

        if not getattr(self.objective, "deterministic", False) and not hasattr(
            self.objective, "reseeded"
        ):
            # Episodes run against snapshot weights in (possibly) separate
            # processes, so a shared mutable noise rng cannot advance across
            # them.  Objectives exposing ``reseeded(rng)`` opt into the
            # noise-resampling mode instead: each episode draws noise from
            # its own (round, slot)-derived stream.
            raise ValueError(
                "batched training needs a deterministic objective or one "
                "supporting reseeded(rng) for per-episode noise resampling; "
                f"{type(self.objective).__name__} is neither"
            )
        cfg = self.config
        params = list(self.agent.parameters())
        stats: list[EpisodeStats] = []
        context = BatchContext(problems, self.objective, cfg, self.agent)
        with tempfile.TemporaryDirectory(prefix="repro-rounds-") as rounds_dir, \
                backend.pool(context) as pool:
            remaining = total
            round_index = 0
            while remaining > 0:
                k = min(batch_size, remaining)
                indices = [int(rng.integers(0, len(problems))) for _ in range(k)]
                root = int(rng.integers(0, 2**63))
                # The round's weights are broadcast by file reference:
                # written once here, unpickled once per (worker, round) —
                # not pickled into each of the K slot payloads.
                snapshot = write_snapshot(self.agent.state_dict(), rounds_dir, round_index)
                round_index += 1
                rollouts = pool.map(
                    rollout_episode,
                    [
                        EpisodePayload(problem_index=p, root=root, slot=s, snapshot=snapshot)
                        for s, p in enumerate(indices)
                    ],
                )
                # Mean gradient, summed in slot order so the float op
                # order (and thus the update) is worker-count independent.
                with span("reinforce.grad"):
                    for i, param in enumerate(params):
                        acc = None
                        for rollout in rollouts:
                            grad = rollout.grads[i]
                            if grad is None:
                                continue
                            acc = grad.copy() if acc is None else acc + grad
                        param.grad = acc / k if acc is not None else None
                    self.optimizer.clip_grad_norm(cfg.grad_clip)
                    self.optimizer.step()
                for rollout in rollouts:
                    ep = EpisodeStats(
                        episode=len(self.history),
                        initial_value=rollout.initial_value,
                        final_value=rollout.final_value,
                        best_value=rollout.best_value,
                        total_reward=rollout.total_reward,
                        grad_norm=rollout.grad_norm,
                    )
                    self.history.append(ep)
                    stats.append(ep)
                    if callback is not None:
                        callback(ep)
                remaining -= k
        return stats
