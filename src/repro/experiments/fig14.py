"""Figure 14: policy convergence of the GNN implementation alternatives.

Appendix B.6 trains GiPH, GiPH-3, GiPH-5, GiPH-NE, GraphSAGE-NE,
GiPH-NE-Pol and GiPH-task-eft (plus Placeto where applicable) and
evaluates every few episodes on held-out cases, across three settings:
a single network, multiple fixed-size networks, and networks of varied
sizes.  Expected shape: GiPH/GiPH-k converge; GraphSAGE-NE (one-way
message passing) and GiPH-task-eft (no gpNet) are the unstable ones.

Every (setting, variant) cell trains from its own seed-derived stream
``default_rng([seed, setting_idx, variant_idx, 0])`` — so curves are
not spuriously correlated across cells, ``--seed`` moves the whole
figure, and the cell grid can fan out over ``backend`` with
bit-identical results for any worker count.  Evaluation streams are
shared per setting so variants stay comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..baselines.giph_policy import GiPHSearchPolicy
from ..baselines.task_eft import TaskEftAgent
from ..core.agent import GiPHAgent
from ..core.features import FeatureConfig
from ..core.placement import PlacementProblem
from ..core.reinforce import ReinforceConfig, ReinforceTrainer
from ..parallel import ExecutionBackend, InlineBackend, get_context
from ..sim.objectives import MakespanObjective
from .base import ExperimentReport
from .config import Scale
from .datasets import Dataset, multi_network_dataset, single_network_dataset
from .reporting import banner, format_series
from .runner import evaluate_policies

__all__ = ["run", "convergence_curve", "GNN_VARIANTS"]

GNN_VARIANTS = ("giph", "giph-3", "giph-5", "giph-ne", "graphsage-ne", "giph-ne-pol")


def convergence_curve(
    variant: str,
    dataset: Dataset,
    scale: Scale,
    rng: np.random.Generator,
    feature_config: FeatureConfig | None = None,
    eval_seed: int | Sequence[int] = 12345,
) -> list[float]:
    """Mean eval SLR after every ``convergence_eval_every`` episodes.

    ``eval_seed`` seeds the held-out evaluation sweep; it is re-derived
    per evaluation point so every point of the curve (and, when callers
    pass the same seed across variants, every variant) is measured under
    identical evaluation conditions.
    """
    objective = MakespanObjective()
    eval_cases = dataset.test[: scale.convergence_eval_cases]
    curve: list[float] = []

    def evaluate(policy) -> float:
        result = evaluate_policies({"p": policy}, eval_cases, np.random.default_rng(eval_seed))
        return result.mean_final("p")

    if variant == "giph-task-eft":
        agent = policy = TaskEftAgent(rng)
    else:
        agent = GiPHAgent(rng, embedding=variant)
        policy = GiPHSearchPolicy(agent, feature_config=feature_config)
    config = ReinforceConfig(
        episodes=scale.convergence_episodes,
        feature_config=feature_config or FeatureConfig(),
    )
    trainer = ReinforceTrainer(agent, objective, config)
    for _ in range(scale.convergence_episodes // scale.convergence_eval_every):
        trainer.train(dataset.train, rng, episodes=scale.convergence_eval_every)
        curve.append(evaluate(policy))
    return curve


@dataclass(frozen=True)
class _Fig14Context:
    """Broadcast payload for the (setting, variant) cell workers."""

    scale: Scale
    seed: int
    datasets: list[Dataset]
    variants: list[str]


def _cell_curve(cell: tuple[int, int]) -> list[float]:
    """Train and evaluate one (setting, variant) cell.

    Training draws from ``default_rng([seed, setting, variant, 0])`` —
    per-cell streams, so curves are not spuriously correlated — while
    every evaluation point uses the *setting-shared* stream
    ``default_rng([seed, setting, 1])``: variants are compared on
    identical held-out cases and initial placements, which is the
    figure's point.
    """
    setting_idx, variant_idx = cell
    ctx: _Fig14Context = get_context()
    train_rng = np.random.default_rng([ctx.seed, setting_idx, variant_idx, 0])
    return convergence_curve(
        ctx.variants[variant_idx],
        ctx.datasets[setting_idx],
        ctx.scale,
        train_rng,
        eval_seed=(ctx.seed, setting_idx, 1),
    )


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    settings: list[tuple[str, Dataset]] = [
        ("single network", single_network_dataset(scale, rng)),
        ("multiple networks, same size", multi_network_dataset(scale, rng)),
        ("multiple networks, varied sizes", multi_network_dataset(scale, rng, vary_sizes=True)),
    ]
    variants = [*GNN_VARIANTS, "giph-task-eft"]

    cells = [(s, v) for s in range(len(settings)) for v in range(len(variants))]
    context = _Fig14Context(
        scale=scale,
        seed=seed,
        datasets=[dataset for _, dataset in settings],
        variants=variants,
    )
    flat_curves = (backend or InlineBackend()).fanout(_cell_curve, cells, context)

    sections = []
    data: dict[str, dict[str, list[float]]] = {}
    episodes_axis = list(
        range(
            scale.convergence_eval_every,
            scale.convergence_episodes + 1,
            scale.convergence_eval_every,
        )
    )
    for setting_idx, (label, _) in enumerate(settings):
        curves = {
            variants[v]: flat_curves[setting_idx * len(variants) + v]
            for v in range(len(variants))
        }
        sections.append(banner(f"Fig. 14: convergence — {label}"))
        sections.append(
            format_series(
                curves,
                x=episodes_axis,
                x_label="episodes",
                title="average SLR on evaluation cases",
            )
        )
        data[label] = curves

    return ExperimentReport(
        experiment_id="fig14",
        title="Convergence of GNN implementation alternatives",
        text="\n".join(sections),
        data=data,
    )
