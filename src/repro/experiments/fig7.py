"""Figure 7: deep-learning computation graphs (paper §5.2).

(a) SLR during the search on ENAS-generated recurrent-cell graphs,
grouped to a fixed node count and placed on a single simulated device
network; (b) the distribution of per-task relocation counts for GiPH,
showing it revisits "critical" groups instead of sweeping all nodes
uniformly as Placeto does.

Seed-stream layout: stage 0 — ENAS dataset, stage 1 — one stream per
training cell (fanned over ``backend``), stage 2 — evaluation (fanned
per case).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..baselines.random_policies import RandomPlacementPolicy, RandomTaskEftPolicy
from ..core.placement import PlacementProblem
from ..devices.generator import DeviceNetworkParams, generate_device_network
from ..graphs.enas import generate_enas_dataset
from ..graphs.grouping import group_operators
from ..parallel import ExecutionBackend
from .base import ExperimentReport
from .config import Scale
from .datasets import Dataset
from .reporting import banner, format_series, format_table
from .runner import TrainSpec, evaluate_policies, train_policy_grid

__all__ = ["run", "build_dl_dataset"]


def build_dl_dataset(scale: Scale, rng: np.random.Generator) -> Dataset:
    """ENAS graphs, operator-grouped, on one shared device network."""
    raw = generate_enas_dataset(
        rng,
        num_designs=scale.dl_designs,
        variants_per_design=scale.dl_variants,
    )
    grouped = [group_operators(g, target_size=scale.dl_group_target).graph for g in raw]
    network = generate_device_network(
        DeviceNetworkParams(num_devices=scale.dl_devices, support_prob=1.0), rng
    )
    problems = [PlacementProblem(g, network) for g in grouped]
    rng.shuffle(problems)  # type: ignore[arg-type]
    if len(problems) == 1:
        # Degenerate (micro-scale) dataset: evaluate on the training graph.
        return Dataset(problems, problems, "dl-graphs")
    half = max(len(problems) // 2, 1)
    return Dataset(problems[:half], problems[half : half + scale.dl_test_cases], "dl-graphs")


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    dataset = build_dl_dataset(scale, np.random.default_rng([seed, 0]))

    trained = train_policy_grid(
        [dataset.train],
        [
            TrainSpec("giph", "giph", (seed, 1, 0), scale.dl_episodes),
            TrainSpec("giph-task-eft", "task-eft", (seed, 1, 1), scale.dl_episodes),
            TrainSpec("placeto", "placeto", (seed, 1, 2), scale.dl_episodes),
        ],
        backend=backend,
    )
    policies = {
        "giph": trained["giph"],
        "giph-task-eft": trained["giph-task-eft"],
        "placeto": trained["placeto"],
        "random-task-eft": RandomTaskEftPolicy(),
        "random": RandomPlacementPolicy(),
    }
    result = evaluate_policies(
        policies, dataset.test, np.random.default_rng([seed, 2]), backend=backend
    )

    # (b) relocation-count histogram over GiPH's evaluation searches
    # (non-zero counts only, as in the paper).
    counts = Counter()
    for trace in result.traces["giph"]:
        for c in trace.relocation_counts:
            if c > 0:
                counts[c] += 1
    hist_rows = [[k, counts[k]] for k in sorted(counts)]

    text = "\n".join(
        [
            banner("Fig. 7(a): SLR during search on DL computation graphs"),
            format_series(
                result.curves,
                x_label="search step",
                title="average SLR (best-so-far) vs search steps",
                every=max(1, scale.dl_group_target // 2),
            ),
            banner("Fig. 7(b): task relocation count distribution (GiPH)"),
            format_table(["relocations per task", "tasks"], hist_rows),
        ]
    )
    return ExperimentReport(
        experiment_id="fig7",
        title="Deep learning graphs: search efficiency and relocation counts",
        text=text,
        data={
            "curves": {k: v.tolist() for k, v in result.curves.items()},
            "final": {k: result.mean_final(k) for k in result.finals},
            "relocation_histogram": dict(counts),
        },
    )
