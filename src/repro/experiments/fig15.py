"""Figure 15: convergence after removing the start-time-potential feature.

The EST potential aggregates neighborhood schedule information into a
single node feature; without it GiPH-NE-Pol (no GNN) has nothing doing
that aggregation and stops improving, while GiPH's message passing
compensates — the least-affected variant (Appendix B.6).

Per-variant training streams ``default_rng([seed, variant, 0])`` (same
fix as fig14: a shared ``default_rng(seed + 1)`` would correlate every
curve) with a shared eval stream ``(seed, 1)`` keeping variants measured
on identical held-out sweeps — which is also what lets the variant cells
fan out over ``backend`` with bit-identical curves at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.features import FeatureConfig
from ..parallel import ExecutionBackend, InlineBackend, get_context
from .base import ExperimentReport
from .config import Scale
from .datasets import Dataset, multi_network_dataset
from .fig14 import convergence_curve
from .reporting import banner, format_series

__all__ = ["run"]

VARIANTS = ("giph", "giph-3", "giph-5", "giph-ne-pol")


@dataclass(frozen=True)
class _Fig15Context:
    """Broadcast payload for the per-variant convergence cells."""

    seed: int
    scale: Scale
    dataset: Dataset
    feature_config: FeatureConfig


def _variant_curve(variant_index: int) -> list[float]:
    ctx: _Fig15Context = get_context()
    return convergence_curve(
        VARIANTS[variant_index],
        ctx.dataset,
        ctx.scale,
        np.random.default_rng([ctx.seed, variant_index, 0]),
        feature_config=ctx.feature_config,
        eval_seed=(ctx.seed, 1),
    )


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    rng = np.random.default_rng(seed)
    dataset = multi_network_dataset(scale, rng, vary_sizes=True)

    context = _Fig15Context(
        seed=seed,
        scale=scale,
        dataset=dataset,
        feature_config=FeatureConfig(use_start_time_potential=False),
    )
    curves = dict(
        zip(
            VARIANTS,
            (backend or InlineBackend()).fanout(
                _variant_curve, range(len(VARIANTS)), context
            ),
        )
    )
    episodes_axis = list(
        range(
            scale.convergence_eval_every,
            scale.convergence_episodes + 1,
            scale.convergence_eval_every,
        )
    )
    text = "\n".join(
        [
            banner("Fig. 15: convergence without the start-time-potential feature"),
            format_series(
                curves,
                x=episodes_axis,
                x_label="episodes",
                title="average SLR on evaluation cases (EST potential removed)",
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="fig15",
        title="Feature ablation: removing the EST potential",
        text=text,
        data={"curves": curves},
    )
