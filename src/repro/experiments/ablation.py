"""Design-choice ablations beyond the paper's B.6 GNN study.

Two implementation decisions the paper motivates but does not sweep:

* **Action masks** (§4.2.3): masking no-op actions and consecutive moves
  of the same task "improves the sample efficiency and forces
  exploration".  This ablation trains GiPH with masks on/off and
  compares evaluation SLR.
* **Message aggregation** (Eq. 1 writes a sum; §5 says mean): trains the
  GNN with each aggregation and compares.

Seed-stream layout: stage 0 — dataset, stage 1 — one stream per ablated
configuration's training cell (fanned over ``backend``), stage 2 —
evaluation (fanned per case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines.giph_policy import GiPHSearchPolicy
from ..core.agent import GiPHAgent
from ..core.env import PlacementEnv
from ..core.gnn import TwoWayMessagePassing
from ..core.reinforce import ReinforceConfig, ReinforceTrainer
from ..core.search import SearchTrace
from ..parallel import ExecutionBackend, InlineBackend, get_context
from ..sim.objectives import MakespanObjective
from .base import ExperimentReport
from .config import Scale
from .datasets import Dataset, multi_network_dataset
from .reporting import banner, format_table
from .runner import evaluate_policies

__all__ = ["run"]

# (display name, masks on?, aggregation) per ablated configuration.
CONFIGURATIONS = (
    ("giph (masks, mean-agg)", True, "mean"),
    ("giph (no masks)", False, "mean"),
    ("giph (sum-agg)", True, "sum"),
)


class _MasklessSearchPolicy(GiPHSearchPolicy):
    """GiPH evaluated with the §4.2.3 masks disabled."""

    def search(self, problem, objective, initial_placement, episode_length, rng, evaluator=None):
        self.agent.rng = rng
        env = PlacementEnv(
            problem, objective, episode_length=episode_length,
            mask_no_ops=False, mask_repeat_task=False,
            evaluator=evaluator,
        )
        state = env.reset(initial_placement=initial_placement)
        values = [state.objective_value]
        best = state.objective_value
        best_placement = state.placement
        best_curve = [best]
        relocations = np.zeros(problem.graph.num_tasks, dtype=int)
        done = False
        while not done:
            action = self.agent.act_inference(env, state, greedy=self.greedy)
            task, _ = state.gpnet.action_of(action)
            prev = state.placement
            state, _, done = env.step(action)
            if state.placement != prev:
                relocations[task] += 1
            values.append(state.objective_value)
            if state.objective_value < best:
                best, best_placement = state.objective_value, state.placement
            best_curve.append(best)
        return SearchTrace(
            best_placement, best, tuple(best_curve), tuple(values),
            tuple(int(c) for c in relocations),
        )


def _train(dataset, scale, rng, masks: bool = True, aggregation: str = "mean") -> GiPHAgent:
    agent = GiPHAgent(rng, embedding=TwoWayMessagePassing(rng, aggregation=aggregation))
    trainer = ReinforceTrainer(
        agent, MakespanObjective(), ReinforceConfig(episodes=scale.episodes)
    )
    if not masks:
        # Patch episode collection to a maskless environment.
        original = trainer.run_episode

        def run_episode(problem, ep_rng):
            env = PlacementEnv(
                problem, trainer.objective,
                episode_length=trainer.config.episode_length,
                mask_no_ops=False, mask_repeat_task=False,
            )
            # Reuse the trainer's machinery by temporarily overriding the
            # env construction is invasive; simplest faithful route: run
            # the episode inline (mirrors ReinforceTrainer.run_episode).
            from ..core.reinforce import average_reward_baseline, discounted_returns

            state = env.reset(rng=ep_rng)
            log_probs, rewards = [], []
            done = False
            while not done:
                action, lp = agent.act(env, state)
                state, reward, done = env.step(action)
                log_probs.append(lp)
                rewards.append(reward)
            cfg = trainer.config
            returns = discounted_returns(rewards, cfg.gamma)
            baseline = average_reward_baseline(rewards)
            discount = cfg.gamma ** np.arange(len(rewards))
            advantages = discount * (returns - baseline)
            loss = sum(lp * float(-adv) for lp, adv in zip(log_probs, advantages))
            trainer.optimizer.zero_grad()
            loss.backward()
            trainer.optimizer.clip_grad_norm(cfg.grad_clip)
            trainer.optimizer.step()
            return None

        for _ in range(scale.episodes):
            run_episode(dataset.train[int(rng.integers(0, len(dataset.train)))], rng)
        return agent
    trainer.train(dataset.train, rng, episodes=scale.episodes)
    return agent


@dataclass(frozen=True)
class _AblationContext:
    """Broadcast payload for the per-configuration training cells."""

    seed: int
    scale: Scale
    dataset: Dataset


def _train_configuration(config_index: int):
    """Train one ablated configuration from its own derived stream."""
    ctx: _AblationContext = get_context()
    name, masks, aggregation = CONFIGURATIONS[config_index]
    rng = np.random.default_rng([ctx.seed, 1, config_index])
    agent = _train(ctx.dataset, ctx.scale, rng, masks=masks, aggregation=aggregation)
    if not masks:
        return _MasklessSearchPolicy(agent, name="giph-no-masks")
    return GiPHSearchPolicy(agent, name="giph-sum" if aggregation == "sum" else "giph")


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    backend = backend or InlineBackend()
    dataset = multi_network_dataset(scale, np.random.default_rng([seed, 0]))

    context = _AblationContext(seed=seed, scale=scale, dataset=dataset)
    policies = dict(
        zip(
            [name for name, _, _ in CONFIGURATIONS],
            backend.fanout(_train_configuration, range(len(CONFIGURATIONS)), context),
        )
    )
    result = evaluate_policies(
        policies, dataset.test, np.random.default_rng([seed, 2]), backend=backend
    )

    rows = [[name, result.mean_final(name)] for name in policies]
    text = "\n".join(
        [
            banner("Ablation: action masks (§4.2.3) and message aggregation (Eq. 1)"),
            format_table(["configuration", "mean final SLR"], rows),
        ]
    )
    return ExperimentReport(
        experiment_id="ablation",
        title="Design-choice ablations: masks and aggregation",
        text=text,
        data={"mean_final": {n: result.mean_final(n) for n in policies}},
    )
