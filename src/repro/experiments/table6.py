"""Table 6: pairwise placement-quality comparison of GiPH variants + HEFT.

For every test case and every ordered pair of methods, count whether the
row method's final SLR is better than / equal to / worse than the column
method's.  Expected shape: GiPH's "better" share dominates every
variant, and it trades roughly evenly with HEFT.

Seed-stream layout: stage 0 — dataset, stage 1 — one stream per GNN
variant's training cell (the repo's widest single-dataset training grid,
fanned over ``backend``), stage 2 — evaluation (fanned per case).
"""

from __future__ import annotations

import numpy as np

from ..parallel import ExecutionBackend
from .base import ExperimentReport
from .config import Scale
from .datasets import multi_network_dataset
from .reporting import banner, format_table
from .runner import HeftPolicy, TrainSpec, evaluate_policies, train_policy_grid

__all__ = ["run", "pairwise_matrix"]

METHODS = ("giph", "giph-3", "giph-5", "giph-ne", "giph-ne-pol", "giph-task-eft", "heft")

_EQ_TOL = 1e-9


def pairwise_matrix(finals: dict[str, list[float]]) -> dict[tuple[str, str], tuple[float, float, float]]:
    """(row, col) -> (better%, equal%, worse%) of row vs col."""
    out = {}
    names = list(finals)
    n = len(next(iter(finals.values())))
    for a in names:
        for b in names:
            if a == b:
                continue
            better = equal = worse = 0
            for va, vb in zip(finals[a], finals[b]):
                if abs(va - vb) <= _EQ_TOL:
                    equal += 1
                elif va < vb:
                    better += 1
                else:
                    worse += 1
            out[(a, b)] = (100.0 * better / n, 100.0 * equal / n, 100.0 * worse / n)
    return out


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    dataset = multi_network_dataset(scale, np.random.default_rng([seed, 0]))
    test = dataset.test[: scale.pairwise_cases]

    embeddings = ("giph", "giph-3", "giph-5", "giph-ne", "giph-ne-pol")
    specs = [
        TrainSpec(name, "giph", (seed, 1, i), scale.episodes, embedding=name)
        for i, name in enumerate(embeddings)
    ]
    specs.append(
        TrainSpec(
            "giph-task-eft", "task-eft", (seed, 1, len(embeddings)), scale.episodes
        )
    )
    policies = dict(
        train_policy_grid([dataset.train], specs, backend=backend)
    )
    policies["heft"] = HeftPolicy()
    result = evaluate_policies(
        policies, test, np.random.default_rng([seed, 2]), backend=backend
    )
    matrix = pairwise_matrix(result.finals)

    rows = []
    for a in METHODS:
        for label, pick in (("better", 0), ("equal", 1), ("worse", 2)):
            row: list[object] = [a if pick == 0 else "", label]
            for b in METHODS:
                row.append("" if a == b else f"{matrix[(a, b)][pick]:.1f}%")
            rows.append(row)

    text = "\n".join(
        [
            banner(f"Table 6: pairwise SLR comparison over {len(test)} test cases"),
            format_table(["method", "", *METHODS], rows),
        ]
    )
    return ExperimentReport(
        experiment_id="table6",
        title="Pairwise placement quality comparison",
        text=text,
        data={
            "matrix": {f"{a}|{b}": v for (a, b), v in matrix.items()},
            "mean_final": {k: result.mean_final(k) for k in policies},
        },
    )
