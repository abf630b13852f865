"""Figure 16: total-cost minimization (paper §B.8).

GiPH's reward is swapped for the reduction of
Σ compute cost + Σ communication cost.  HEFT still optimizes makespan,
so GiPH should beat it (and random) on this objective — demonstrating
objective generality.  Reported, like the paper, as total cost of the
final placements versus task-graph depth.

Seed-stream layout: stage 0 — dataset, stage 1 — training, stage 2 —
evaluation (fanned per case over ``backend``).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..baselines.random_policies import RandomPlacementPolicy
from ..sim.objectives import TotalCostObjective
from ..parallel import ExecutionBackend
from .base import ExperimentReport
from .config import Scale
from .datasets import multi_network_dataset
from .reporting import banner, format_table
from .runner import HeftPolicy, TrainSpec, evaluate_policies, train_policy_grid

__all__ = ["run"]


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    dataset = multi_network_dataset(scale, np.random.default_rng([seed, 0]))
    objective = TotalCostObjective()

    trained = train_policy_grid(
        [dataset.train],
        [TrainSpec("giph", "giph", (seed, 1, 0), scale.episodes, objective=objective)],
        backend=backend,
    )
    policies = {
        "giph": trained["giph"],
        "random": RandomPlacementPolicy(),
        "heft": HeftPolicy(),
    }
    result = evaluate_policies(
        policies,
        dataset.test,
        np.random.default_rng([seed, 2]),
        normalize_slr=False,
        objective=objective,
        backend=backend,
    )

    by_depth: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for idx, problem in enumerate(dataset.test):
        for name in policies:
            by_depth[problem.graph.depth][name].append(result.finals[name][idx])

    names = list(policies)
    rows = []
    for depth in sorted(by_depth):
        rows.append(
            [depth, *(float(np.mean(by_depth[depth][n])) for n in names)]
        )

    text = "\n".join(
        [
            banner("Fig. 16: total communication+computation cost vs graph depth"),
            format_table(["depth", *names], rows),
        ]
    )
    return ExperimentReport(
        experiment_id="fig16",
        title="Total cost minimization via reward swap",
        text=text,
        data={"overall": {n: result.mean_final(n) for n in names}},
    )
