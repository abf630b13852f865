"""Figure 6: adaptivity to device-network changes.

A cluster starts at full strength; devices are randomly removed and
replaced by lower-capacity ones (§5).  The sweep is expressed as a
scenario (:mod:`repro.scenarios`) replayed by the streaming
:class:`~repro.scenarios.ScenarioRunner`: after each churn event every
policy re-places the application graphs on the *new* network from its
carried placement, without retraining — except the RNN placer, which is
retrained per change (:class:`~repro.baselines.RnnPlacerPolicy`), and
HEFT, which is recomputed per change.  Expected shape: GiPH stays near
HEFT; Placeto drifts to or below random; random degrades as high-cost
devices accumulate.  On top of the seed version's SLR series, the
scenario engine also reports migration bills and regret against a
fresh-search oracle.
"""

from __future__ import annotations

import numpy as np

from ..baselines.giph_policy import GiPHSearchPolicy
from ..baselines.random_policies import RandomPlacementPolicy
from ..baselines.rnn_placer import RnnPlacerPolicy
from ..core.placement import PlacementProblem
from ..devices.dynamics import ChurnConfig
from ..parallel import ExecutionBackend, InlineBackend
from ..scenarios import ClusterSpec, ScenarioRunner, ScenarioSpec, WorkloadSpec, materialize
from .base import ExperimentReport
from .config import Scale
from .reporting import banner, format_series
from .runner import HeftPolicy, stage_key, train_agent

__all__ = ["run", "adaptivity_spec"]

POLICIES = ("giph", "giph-task-eft", "placeto", "random", "rnn-placer", "heft")


def adaptivity_spec(scale: Scale, seed: int = 0) -> ScenarioSpec:
    """The Fig. 6 protocol as a declarative scenario."""
    return ScenarioSpec(
        name="fig6-adaptivity",
        seed=seed,
        workload=WorkloadSpec(
            initial_graphs=scale.adapt_graphs, num_tasks=scale.num_tasks
        ),
        cluster=ClusterSpec(num_devices=scale.adapt_devices, support_prob=0.7),
        churn=ChurnConfig(
            min_devices=scale.adapt_min_devices,
            max_devices=scale.adapt_devices,
            num_changes=scale.adapt_changes,
        ),
        description="paper Fig. 6: churn between full and reduced capacity",
    )


def _train_all(train_problems, rng: np.random.Generator, scale: Scale):
    """The three learned policies, trained from one shared stream.

    One unit on purpose: the trainings consume a single threaded rng, so
    they memoize (and replay at shard merge) only as a bundle.
    """
    giph, task_eft, placeto = (
        train_agent(kind, train_problems, rng, scale.episodes)
        for kind in ("giph", "task-eft", "placeto")
    )
    return GiPHSearchPolicy(giph), task_eft, placeto


def run(
    scale: Scale,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    backend = backend or InlineBackend()
    materialized = materialize(adaptivity_spec(scale, seed))

    # Learned policies trained once, on the initial network only.
    train_problems = [
        PlacementProblem(g, materialized.initial_network) for g in materialized.initial_graphs
    ]
    giph_policy, task_eft, placeto = backend.compute(
        "stage",
        stage_key("fig6", "train", seed, scale),
        lambda: _train_all(train_problems, np.random.default_rng(seed), scale),
    )

    # The six policy replays are independent (per-policy seed streams,
    # one EvaluatorPool each), so they fan out across workers.
    result = ScenarioRunner(materialized).run(
        {
            "giph": giph_policy,
            "giph-task-eft": task_eft,
            "placeto": placeto,
            "random": RandomPlacementPolicy(),
            # Retrained from scratch on every change (the paper's
            # "w/ retraining" baseline).
            "rnn-placer": RnnPlacerPolicy(),
            "heft": HeftPolicy(),
        },
        backend=backend,
    )

    slr_by_change = {name: result.slr_series(name) for name in POLICIES}
    migration_by_change = {
        name: result.reports[name].series("migration_cost_ms") for name in POLICIES
    }
    regret_by_change = {name: result.reports[name].series("regret") for name in POLICIES}

    x = list(range(1, len(slr_by_change["giph"]) + 1))
    text = "\n".join(
        [
            banner("Fig. 6: adaptivity to device network changes"),
            format_series(
                slr_by_change,
                x=x,
                x_label="network change #",
                title="average SLR after each change (no retraining except rnn-placer)",
            ),
            "",
            "adaptation summary (scenario engine):",
            *(
                f"  {name:<14s} mean regret {result.reports[name].mean_regret:+.3f}, "
                f"{result.reports[name].total_migrated_tasks:4d} migrations, "
                f"{result.reports[name].total_migration_cost_ms:9.1f} ms migration cost, "
                f"cache hit rate {result.reports[name].evaluator_stats.get('hit_rate', 0.0):.2f}"
                for name in POLICIES
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="fig6",
        title="Adaptivity to device network changes",
        text=text,
        data={
            "slr_by_change": slr_by_change,
            "migration_by_change": migration_by_change,
            "regret_by_change": regret_by_change,
            "oracle_slr": list(result.oracle_slr),
        },
    )
