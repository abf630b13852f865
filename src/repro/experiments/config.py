"""Experiment scale presets.

Every experiment module takes a :class:`Scale`.  ``PAPER`` matches the
paper's dataset and episode counts; ``QUICK`` (the default for the
benchmark suite) shrinks sizes so the full harness finishes in minutes
on the pure-NumPy substrate while exercising identical code paths.
Select via ``REPRO_SCALE=paper`` in the environment or by passing the
preset explicitly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

__all__ = ["Scale", "PAPER", "QUICK", "active_scale"]


@dataclass(frozen=True)
class Scale:
    """Knobs shared by the experiment runners.

    Fields mirror §5's setup: dataset sizes, RL episode counts, and the
    problem dimensions of each experiment family.
    """

    name: str
    # General synthetic experiments (Figs. 4-6, 14-16, Table 6).
    num_tasks: int
    num_devices: int
    train_graphs: int
    test_cases: int
    episodes: int
    num_networks: int  # multi-network case: networks in the pool
    # DL-graph experiment (Fig. 7).
    dl_designs: int
    dl_variants: int
    dl_group_target: int
    dl_devices: int
    dl_episodes: int
    dl_test_cases: int
    # Adaptivity (Fig. 6).
    adapt_devices: int
    adapt_min_devices: int
    adapt_changes: int
    adapt_graphs: int
    # Case study (Figs. 9, 11).
    case_vehicles: int
    case_duration_s: float
    case_cav_fraction: float
    case_train: int
    case_test: int
    case_episodes: int
    # Convergence studies (Figs. 14-15).
    convergence_episodes: int
    convergence_eval_every: int
    convergence_eval_cases: int
    # Pairwise comparison (Table 6).
    pairwise_cases: int
    # Timing (Table 7 / Fig. 17).
    timing_graph_sizes: tuple[int, ...]
    timing_repeats: int


PAPER = Scale(
    name="paper",
    num_tasks=20,
    num_devices=10,
    train_graphs=150,
    test_cases=150,
    episodes=200,
    num_networks=10,
    dl_designs=10,
    dl_variants=30,
    dl_group_target=40,
    dl_devices=8,
    dl_episodes=200,
    dl_test_cases=150,
    adapt_devices=20,
    adapt_min_devices=16,
    adapt_changes=8,
    adapt_graphs=20,
    case_vehicles=3980,
    case_duration_s=3600.0,
    case_cav_fraction=0.10,
    case_train=450,
    case_test=300,
    case_episodes=200,
    convergence_episodes=200,
    convergence_eval_every=5,
    convergence_eval_cases=20,
    pairwise_cases=1000,
    timing_graph_sizes=(10, 20, 40, 80),
    timing_repeats=5,
)

# Sized so the full tier-1 suite (unit tests + every quick-scale
# benchmark) stays under ~90s wall clock on one core; every experiment
# still runs multiple episodes/cases through the paper-scale code paths.
QUICK = Scale(
    name="quick",
    num_tasks=8,
    num_devices=5,
    train_graphs=4,
    test_cases=6,
    episodes=14,
    num_networks=3,
    dl_designs=2,
    dl_variants=2,
    dl_group_target=16,
    dl_devices=5,
    dl_episodes=4,
    dl_test_cases=2,
    adapt_devices=8,
    adapt_min_devices=6,
    adapt_changes=3,
    adapt_graphs=3,
    case_vehicles=300,
    case_duration_s=100.0,
    case_cav_fraction=0.30,
    case_train=5,
    case_test=2,
    case_episodes=8,
    convergence_episodes=4,
    convergence_eval_every=2,
    convergence_eval_cases=1,
    pairwise_cases=6,
    timing_graph_sizes=(6, 12, 18),
    timing_repeats=1,
)


def active_scale(name: str | None = None) -> Scale:
    """The preset called ``name``; by default the one ``REPRO_SCALE`` selects."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "quick")
    scale = {"quick": QUICK, "paper": PAPER}.get(name.lower())
    if scale is None:
        raise ValueError(f"unknown scale {name!r}; set REPRO_SCALE to 'quick' or 'paper'")
    return scale
