"""Figure 5: average SLR with respect to task-graph depth.

Deeper graphs have longer critical paths, so SLR rises for every method;
GiPH should track HEFT closely and beat the other search policies.

Seed-stream layout: stage 0 — dataset, stage 1 — one stream per
training cell (fanned over ``backend``), stage 2 — evaluation (fanned
per case).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from ..baselines.random_policies import RandomPlacementPolicy, RandomTaskEftPolicy
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

    trained = train_policy_grid(
        [dataset.train],
        [
            TrainSpec("giph", "giph", (seed, 1, 0), scale.episodes),
            TrainSpec("giph-task-eft", "task-eft", (seed, 1, 1), scale.episodes),
        ],
        backend=backend,
    )
    policies = {
        "giph": trained["giph"],
        "giph-task-eft": trained["giph-task-eft"],
        "random-task-eft": RandomTaskEftPolicy(),
        "random": RandomPlacementPolicy(),
        "heft": HeftPolicy(),
    }
    result = evaluate_policies(
        policies, dataset.test, np.random.default_rng([seed, 2]), backend=backend
    )

    # Group final SLR by graph depth.
    by_depth: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for case_index, problem in enumerate(dataset.test):
        depth = problem.graph.depth
        for name in policies:
            by_depth[depth][name].append(result.finals[name][case_index])

    names = list(policies)
    rows = []
    mean_by_policy: dict[str, list[float]] = {n: [] for n in names}
    for depth in sorted(by_depth):
        row: list[object] = [depth, len(by_depth[depth][names[0]])]
        for name in names:
            mean = float(np.mean(by_depth[depth][name]))
            row.append(mean)
            mean_by_policy[name].append(mean)
        rows.append(row)

    text = "\n".join(
        [
            banner("Fig. 5: average SLR vs task-graph depth"),
            format_table(["depth", "cases", *names], rows),
        ]
    )
    return ExperimentReport(
        experiment_id="fig5",
        title="Average SLR with respect to the depth of the task graph",
        text=text,
        data={
            "depths": sorted(by_depth),
            "mean_slr": {n: mean_by_policy[n] for n in names},
            "overall": {n: result.mean_final(n) for n in names},
        },
    )
