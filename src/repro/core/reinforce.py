"""REINFORCE training of every learned placer (paper §4.1, Appendix B.7).

GiPH and its two learned comparators (GiPH-task-EFT, Placeto) are trained
by the same policy gradient — that is what makes Figs. 4–7 / Table 6 a
fair comparison — so there is one trainer.  Per episode, a problem (G, N)
is sampled from the training set and the agent searches from a random
placement.  The policy gradient uses discounted returns with the paper's
variance-reduction baseline: "the average reward before step t in an
episode".

    θ ← θ + α Σ_t γ^t ∇ log π(a_t|s_t) (Σ_{t'≥t} γ^{t'-t} r_{t'} − b_t)

:class:`ReinforceTrainer` owns problem sampling, the per-problem caches,
the loss, the optimizer step and the telemetry, and asks its agent for
two things only (:class:`~repro.core.agent.GiPHAgent`,
:class:`~repro.baselines.task_eft.TaskEftAgent` and
:class:`~repro.baselines.placeto.PlacetoAgent` provide them):

* ``agent.handle(problem, feature_config)`` — what the agent precomputes
  per problem (``GpNetBuilder`` / ``TaskViewBuilder`` / ``PlacetoLayout``),
  cached beside the problem's evaluator and evicted with it;
* ``agent.rollout(evaluator, handle, rng, episode_length)`` — one
  on-policy episode from a random placement drawn from ``rng``:
  ``(log_probs, rewards, initial_value, final_value, best_value)``.
  ``episode_length=None`` is the agent's own default (2|V| relocations;
  one |V|-step traversal for Placeto).

Batched training (``train(..., batch_size=K)``) aggregates K episodes
collected at one round's weights into one update:

1. the trainer samples K problems and a round seed from its main rng,
2. one ``backend.fanout`` runs slot ``s`` as an episode on the round's
   ``problems[s]`` with the stream ``task_rng(round_root, s)`` and
   returns its policy gradient,
3. the trainer averages the K gradients **in slot order** and applies a
   single clipped optimizer step.

Every slot's randomness derives only from ``(round_root, slot)`` and the
aggregation order is fixed, so the weights are bit-identical for any
worker count (``tests/parallel/test_determinism.py``).  A round's
broadcast context is ``(trainer, the round's K problems)``, pickled once
per round: the trainer pickles as a *replica* — its agent at the
round's weights, without optimizer moments, history or caches — and a
slot runs the same :meth:`ReinforceTrainer._episode` the serial path
runs, so the two modes cannot drift.  A replica's caches last one round
and never change deterministic values.

Non-deterministic objectives take part through the noise-resampling
mode: an objective exposing ``reseeded(rng)`` (e.g. a noisy
:class:`~repro.sim.objectives.MakespanObjective`) gets a per-episode copy
seeded from ``task_rng(round_root, slot, 1)``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..nn import Adam, Tensor, stack
from ..parallel import (
    ExecutionBackend,
    ExecutionBackendError,
    InlineBackend,
    ThreadBackend,
    get_context,
    task_rng,
)
from ..runtime.evaluator import EvaluatorPool, EvaluatorStats, PlacementEvaluator
from ..sim.objectives import Objective
from ..telemetry import metrics, span
from .features import FeatureConfig
from .placement import PlacementProblem

__all__ = [
    "ReinforceConfig",
    "EpisodeStats",
    "ReinforceTrainer",
    "EpisodePayload",
    "discounted_returns",
    "average_reward_baseline",
    "episode_loss",
    "rollout_episode",
]

# Appended to (root, slot) for a batched episode's noise stream, keeping
# it independent of the rollout stream that drives action sampling and
# the initial placement.
_NOISE_SUBSTREAM = 1


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
    episode_length: int | None = None  # None -> the agent's default (2|V|; |V| for Placeto)
    grad_clip: float = 10.0
    feature_config: FeatureConfig = field(default_factory=FeatureConfig)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.episode_length is not None and self.episode_length < 1:
            raise ValueError("episode_length must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        if self.grad_clip <= 0:
            raise ValueError("grad_clip must be positive")


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


@dataclass(frozen=True)
class EpisodePayload:
    """One slot of a batched update round; it runs the round's
    ``problems[slot]``."""

    root: int  # round-level seed drawn from the trainer's main rng
    slot: int  # position within the round; rng = task_rng(root, slot)


def rollout_episode(payload: EpisodePayload) -> tuple[list, EpisodeStats]:
    """The batched round's task: one slot on the round's trainer replica."""
    replica, problems = get_context()
    return replica._slot(problems[payload.slot], payload)


class ReinforceTrainer:
    """Trains an agent across a distribution of placement problems."""

    def __init__(
        self,
        agent,
        objective: Objective,
        config: ReinforceConfig | None = None,
        max_cached_problems: int = 128,
    ) -> None:
        self.agent = agent
        self.objective = objective
        self.config = config or ReinforceConfig()
        self.max_cached_problems = max_cached_problems
        self.optimizer = Adam(list(agent.parameters()), lr=self.config.learning_rate)
        self.history: list[EpisodeStats] = []
        # One evaluator and one agent handle (gpNet builder, task views,
        # Placeto layout) per problem instance, shared across episodes:
        # the training set repeats problems, so cached placement
        # values/timelines and the handle's static per-instance precompute
        # pay off across episodes instead of being rebuilt each one.  The
        # two caches cover the same problems, so the evaluator pool's LRU
        # drives both: its eviction hook drops the paired handle, keeping
        # a long problem sweep from pinning a handle whose evaluator is
        # gone (or vice versa).
        self._evaluators = EvaluatorPool(
            objective, max_problems=max_cached_problems, on_evict=self._drop_handle
        )
        self._handles: dict[int, object] = {}

    def __getstate__(self) -> dict:
        """What a batched round's replica needs: no optimizer moments,
        history or caches (rebuilt empty by ``__setstate__``)."""
        return {
            "agent": self.agent,
            "objective": self.objective,
            "config": self.config,
            "max_cached_problems": self.max_cached_problems,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def _drop_handle(self, problem_id: int, evaluator: PlacementEvaluator) -> None:
        self._handles.pop(problem_id, None)

    def evaluator_for(self, problem: PlacementProblem) -> PlacementEvaluator:
        """The shared scoring path for ``problem`` (created on first use)."""
        return self._evaluators.get(problem)

    def evaluator_stats(self) -> EvaluatorStats:
        """Aggregate cache/eval counters across all training problems."""
        return self._evaluators.stats()

    def _handle_for(self, problem: PlacementProblem):
        # Touch (or create) the evaluator first so the pair's recency in
        # the pool's LRU moves in lockstep with handle use.
        self._evaluators.get(problem)
        handle = self._handles.get(id(problem))
        if handle is None:
            handle = self.agent.handle(problem, self.config.feature_config)
            self._handles[id(problem)] = handle
        return handle

    def _episode(
        self,
        problem: PlacementProblem,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator,
        step: bool,
    ) -> EpisodeStats:
        """Roll out one on-policy episode and back-propagate its loss;
        ``step`` clips and applies the gradient, otherwise it is left
        whole on the parameters (a batched slot: the round clips the mean)."""
        cfg = self.config
        with span("reinforce.episode"):
            log_probs, rewards, initial_value, final_value, best_value = self.agent.rollout(
                evaluator, self._handle_for(problem), rng, cfg.episode_length
            )
            loss = episode_loss(log_probs, rewards, cfg)
        with span("reinforce.grad"):
            self.optimizer.zero_grad()
            loss.backward()
            grad_norm = self.optimizer.clip_grad_norm(cfg.grad_clip if step else math.inf)
            if step:
                self.optimizer.step()
        metrics().counter("reinforce.episodes").inc()
        return EpisodeStats(
            episode=len(self.history),
            initial_value=initial_value,
            final_value=final_value,
            best_value=best_value,
            total_reward=float(sum(rewards)),
            grad_norm=grad_norm,
        )

    def run_episode(self, problem: PlacementProblem, rng: np.random.Generator) -> EpisodeStats:
        """Collect one on-policy episode and apply a gradient update."""
        stats = self._episode(problem, rng, self._evaluators.get(problem), step=True)
        self.history.append(stats)
        return stats

    def _slot(self, problem: PlacementProblem, payload: EpisodePayload) -> tuple[list, EpisodeStats]:
        """Replica side of a batched round: one episode at the replica's
        weights (the round's); returns its per-parameter gradient
        (``None`` where a parameter got none) and statistics."""
        rng = task_rng(payload.root, payload.slot)
        self.agent.rng = rng
        if getattr(self.objective, "deterministic", False):
            evaluator = self._evaluators.get(problem)
        else:
            # Noise-resampling mode: the episode scores against an objective
            # copy whose noise stream derives from the slot's identity, so
            # realizations are independent across episodes yet bit-identical
            # for any worker count.  Sampled values must never enter a shared
            # cache, so the evaluator is private to the episode (its noise-free
            # timeline cache still serves gpNet features within the episode).
            evaluator = PlacementEvaluator(
                problem,
                self.objective.reseeded(task_rng(payload.root, payload.slot, _NOISE_SUBSTREAM)),
            )
        stats = self._episode(problem, rng, evaluator, step=False)
        return [p.grad for p in self.optimizer.params], stats

    def train(
        self,
        problems: Sequence[PlacementProblem],
        rng: np.random.Generator,
        episodes: int | None = None,
        callback: Callable[[EpisodeStats], None] | None = None,
        *,
        batch_size: int = 1,
        backend: ExecutionBackend | None = None,
    ) -> list[EpisodeStats]:
        """Run ``episodes`` episodes, sampling a problem per episode.

        ``batch_size`` (K) switches to batched collection: each round's
        K episodes fan out through ``backend`` (``None`` = inline) at the
        round's weights, and their gradients are averaged into one
        clipped optimizer step.  K=1 is exactly the serial semantics
        (one episode, one step, all randomness from ``rng``); with K>1
        the per-episode randomness derives from ``(round seed, slot)``
        streams, making the result bit-identical for any worker count.

        A slot writes its replica's gradients and rng, so every backend
        that hands each task a private copy of the context runs rounds;
        the thread backend shares one between tasks and raises
        :class:`~repro.parallel.ExecutionBackendError`.
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
        return self._train_batched(
            problems, rng, total, callback, batch_size, backend or InlineBackend()
        )

    def _train_batched(
        self,
        problems: Sequence[PlacementProblem],
        rng: np.random.Generator,
        total: int,
        callback: Callable[[EpisodeStats], None] | None,
        batch_size: int,
        backend: ExecutionBackend,
    ) -> list[EpisodeStats]:
        if not getattr(self.objective, "deterministic", False) and not hasattr(
            self.objective, "reseeded"
        ):
            # Episodes run on a round's replica in (possibly) separate
            # processes, so a shared mutable noise rng cannot advance across
            # them.  Objectives exposing ``reseeded(rng)`` opt into the
            # noise-resampling mode instead: each episode draws noise from
            # its own (round, slot)-derived stream.
            raise ValueError(
                "batched training needs a deterministic objective or one "
                "supporting reseeded(rng) for per-episode noise resampling; "
                f"{type(self.objective).__name__} is neither"
            )
        if isinstance(backend.direct(), ThreadBackend):
            raise ExecutionBackendError(
                "batched rounds need a private trainer replica per task; the "
                "thread backend shares one context between tasks"
            )
        params = self.optimizer.params
        stats: list[EpisodeStats] = []
        remaining = total
        while remaining > 0:
            k = min(batch_size, remaining)
            round_problems = [problems[int(rng.integers(0, len(problems)))] for _ in range(k)]
            root = int(rng.integers(0, 2**63))
            # The context is pickled once per round and this trainer
            # pickles as a replica at the current weights, so every slot
            # runs on a private copy, never on the live agent.
            rollouts = backend.fanout(
                rollout_episode,
                [EpisodePayload(root=root, slot=s) for s in range(k)],
                (self, round_problems),
            )
            # Mean gradient, summed in slot order so the float op
            # order (and thus the update) is worker-count independent.
            with span("reinforce.grad"):
                for i, param in enumerate(params):
                    acc = None
                    for grads, _ in rollouts:
                        grad = grads[i]
                        if grad is None:
                            continue
                        acc = grad.copy() if acc is None else acc + grad
                    param.grad = acc / k if acc is not None else None
                self.optimizer.clip_grad_norm(self.config.grad_clip)
                self.optimizer.step()
            for _, slot_stats in rollouts:
                ep = dataclasses.replace(slot_stats, episode=len(self.history))
                self.history.append(ep)
                stats.append(ep)
                if callback is not None:
                    callback(ep)
            remaining -= k
        return stats
