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
from ..core.gnn import TwoWayMessagePassing
from ..core.reinforce import ReinforceConfig, ReinforceTrainer
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


class _MasklessAgent(GiPHAgent):
    """GiPH with the §4.2.3 masks disabled: every gpNet node is selectable,
    in training and in search alike."""

    def act(self, env, state):
        mask = np.ones(state.num_actions, dtype=bool)
        return self.policy.sample(self.embedding(state.gpnet), mask, self.rng)


def _train(dataset, scale, rng, masks: bool = True, aggregation: str = "mean") -> GiPHAgent:
    agent_class = GiPHAgent if masks else _MasklessAgent
    agent = agent_class(rng, embedding=TwoWayMessagePassing(rng, aggregation=aggregation))
    trainer = ReinforceTrainer(
        agent, MakespanObjective(), ReinforceConfig(episodes=scale.episodes)
    )
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
        return GiPHSearchPolicy(agent, name="giph-no-masks")
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
