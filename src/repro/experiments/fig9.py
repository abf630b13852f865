"""Figure 9: case study — autonomous intersection traffic management.

Placement cases are extracted from the (simulated) traffic trace and
split into train/test.  (a) plots average SLR vs search steps; (b) the
distribution of final SLRs, where GiPH should sit at or below HEFT's
mean.

Seed-stream layout: stage 0 — trace extraction, stage 1 — one stream
per training cell (fanned over ``backend``), stage 2 — evaluation
(fanned per case).  The trace is memoized through
:func:`repro.casestudy.trace.extract_trace_cached` keyed by (scale,
stream) — fig11 shares stage 0's stream, so one extraction serves both
experiments within a process (and across ``repro shard`` invocations
through the run store).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..baselines.random_policies import RandomPlacementPolicy, RandomTaskEftPolicy
from ..casestudy.trace import TraceConfig, extract_trace_cached
from ..casestudy.traffic import TrafficConfig
from ..parallel import ExecutionBackend
from .base import ExperimentReport
from .config import Scale
from .reporting import banner, format_series, format_table
from .runner import HeftPolicy, TrainSpec, evaluate_policies, train_policy_grid

__all__ = ["run", "case_study_problems", "trace_cache_counter"]


def trace_cache_counter(sources: Sequence[str]) -> dict:
    """Report-data cache counter over this run's trace lookups.

    A ``hit`` is any lookup the memo or the run store satisfied without
    re-running the traffic simulation.  Run-dependent by nature (a
    second same-process run is all hits), so it lives with the other
    volatile report keys — see ``ExperimentReport.stable_data``.
    """
    hits = sum(1 for s in sources if s != "extracted")
    return {"hits": hits, "misses": len(sources) - hits, "sources": list(sources)}


def case_study_problems(
    scale: Scale, stream: Sequence[int], backend: ExecutionBackend | None = None
):
    """(train, test, scenarios, cache source) from the traffic trace.

    ``stream`` is the extraction's full seed-derivation key (fed to
    ``default_rng(list(stream))``), which doubles as its memo identity.
    A cold extraction fans snapshot windows over the direct executor
    beneath ``backend`` (identical scenarios on any backend, so the
    cache key is unaffected).
    """
    config = TraceConfig(
        traffic=TrafficConfig(
            num_vehicles=scale.case_vehicles,
            duration_s=scale.case_duration_s,
            cav_fraction=scale.case_cav_fraction,
        ),
        max_cases=scale.case_train + scale.case_test,
    )
    scenarios, source = extract_trace_cached(config, stream, backend=backend)
    if len(scenarios) < 2:
        raise RuntimeError(
            f"trace produced only {len(scenarios)} placement cases; "
            "increase vehicles/duration/cav_fraction"
        )
    split = min(scale.case_train, len(scenarios) // 2)
    train = [s.problem for s in scenarios[:split]]
    test = [s.problem for s in scenarios[split : split + scale.case_test]]
    return train, test, scenarios, source


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    train, test, _, trace_source = case_study_problems(scale, (seed, 0), backend=backend)

    trained = train_policy_grid(
        [train],
        [
            TrainSpec("giph", "giph", (seed, 1, 0), scale.case_episodes),
            TrainSpec("giph-task-eft", "task-eft", (seed, 1, 1), scale.case_episodes),
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
        policies, test, np.random.default_rng([seed, 2]), backend=backend
    )

    dist_rows = []
    for name in policies:
        finals = np.array(result.finals[name])
        dist_rows.append(
            [
                name,
                float(finals.mean()),
                float(np.percentile(finals, 25)),
                float(np.percentile(finals, 50)),
                float(np.percentile(finals, 75)),
                float(finals.max()),
            ]
        )

    text = "\n".join(
        [
            banner("Fig. 9(a): case-study search efficiency"),
            format_series(
                result.curves,
                x_label="search step",
                title="average SLR (best-so-far) vs search steps",
                every=5,
            ),
            banner("Fig. 9(b): final-SLR distribution across test cases"),
            format_table(["policy", "mean", "p25", "median", "p75", "max"], dist_rows),
        ]
    )
    return ExperimentReport(
        experiment_id="fig9",
        title="Case study: cooperative sensor fusion placement",
        text=text,
        data={
            "curves": {k: v.tolist() for k, v in result.curves.items()},
            "final_mean": {k: result.mean_final(k) for k in result.finals},
            "finals": {k: list(v) for k, v in result.finals.items()},
            "num_train": len(train),
            "num_test": len(test),
            "gnn": dict(result.gnn),
            "trace_cache": trace_cache_counter([trace_source]),
        },
    )
