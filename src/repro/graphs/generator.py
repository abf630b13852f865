"""Parametric random task-graph generator (paper Appendix B.2).

Follows the method of Topcuoglu et al. (2002): the DAG depth is sampled
around ``sqrt(M)/alpha``, per-level widths around ``alpha*sqrt(M)``, and
edges run from higher (shallower) levels to lower levels with probability
``p_c``.  Graphs are single-entry / single-exit by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .task_graph import TaskGraph

__all__ = ["TaskGraphParams", "generate_task_graph"]


@dataclass(frozen=True)
class TaskGraphParams:
    """Input parameters of the task-graph generator (§B.2 symbols).

    Attributes
    ----------
    num_tasks: M, number of tasks in the graph.
    shape: α, controls depth (≈√M/α) vs. width (≈α·√M).
    connect_prob: p_c, probability of an edge between nodes in
        consecutive-or-later levels.
    mean_compute: C̄, average task compute requirement.
    mean_data: B̄, average bytes per data link.
    het_compute: ε_C, compute heterogeneity (uniform ±ε_C·C̄).
    het_data: ε_B, data heterogeneity (uniform ±ε_B·B̄).
    num_hardware_types: number of distinct hardware requirements; type 0
        means "runs anywhere".
    constraint_prob: probability a task gets a non-trivial hardware
        requirement (drives the average number of feasible devices).
    """

    num_tasks: int = 20
    shape: float = 1.0
    connect_prob: float = 0.3
    mean_compute: float = 100.0
    mean_data: float = 100.0
    het_compute: float = 0.5
    het_data: float = 0.5
    num_hardware_types: int = 3
    constraint_prob: float = 0.25

    def __post_init__(self) -> None:
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if not 0.0 <= self.connect_prob <= 1.0:
            raise ValueError("connect_prob must be in [0, 1]")
        if not 0.0 <= self.het_compute <= 1.0 or not 0.0 <= self.het_data <= 1.0:
            raise ValueError("heterogeneity factors must be in [0, 1]")
        if self.num_hardware_types < 1:
            raise ValueError("need at least hardware type 0")
        if not 0.0 <= self.constraint_prob <= 1.0:
            raise ValueError("constraint_prob must be in [0, 1]")


def _sample_levels(params: TaskGraphParams, rng: np.random.Generator) -> list[int]:
    """Split M tasks into levels; first and last levels have width 1."""
    m = params.num_tasks
    if m <= 2:
        return [1] * m
    mean_depth = np.sqrt(m) / params.shape
    lo = 0.5 * mean_depth  # lo + (hi - lo) * random(): uniform(lo, hi)'s float and draw
    depth = min(max(round(lo + (1.5 * mean_depth - lo) * rng.random()), 2), m)
    interior = m - 2  # entry and exit take one task each
    num_interior_levels = max(depth - 2, 0)
    if num_interior_levels == 0 or interior == 0:
        widths = [1] + [1] * interior + [1]
        return widths[: 2 + interior] if interior else [1, 1]
    mean_width = params.shape * np.sqrt(m)
    raw = rng.uniform(0.5 * mean_width, 1.5 * mean_width, size=num_interior_levels)
    raw = np.maximum(raw, 1.0)
    # Scale to exactly `interior` tasks, then fix rounding drift (there are
    # at most `interior` levels, so a surplus always has a width above 1).
    widths = np.maximum(np.round(raw * interior / raw.sum()).astype(int), 1).tolist()
    for _ in range(sum(widths) - interior):
        widths[widths.index(max(widths))] -= 1
    for _ in range(interior - sum(widths)):
        widths[widths.index(min(widths))] += 1
    return [1, *widths, 1]


def generate_task_graph(
    params: TaskGraphParams, rng: np.random.Generator, name: str | None = None
) -> TaskGraph:
    """Sample one random task graph.

    Connectivity guarantees: every non-entry task has at least one parent
    in an earlier level and every non-exit task at least one child in a
    later level, so the graph is single-entry/single-exit and connected.
    """
    widths = _sample_levels(params, rng)
    bounds = list(accumulate(widths, initial=0))
    levels = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    n = bounds[-1]

    lo_c = params.mean_compute * (1 - params.het_compute)
    hi_c = params.mean_compute * (1 + params.het_compute)
    compute = rng.uniform(lo_c, hi_c, size=n)

    lo_b = params.mean_data * (1 - params.het_data)
    span_b = params.mean_data * (1 + params.het_data) - lo_b
    random = rng.random  # lo_b + span_b * random(): one draw, uniform(lo_b, hi_b)'s float

    edges: dict[tuple[int, int], float] = {}

    # Random cross-level edges with probability p_c.
    for li, upper in enumerate(levels[:-1]):
        for lower in levels[li + 1 :]:
            for u in upper:
                for v in lower:
                    if random() < params.connect_prob:
                        edges[(u, v)] = lo_b + span_b * random()

    # Edges run to later levels of consecutive ids: the tasks before a level
    # are range(level[0]), picked by the one bounded draw rng.choice makes.
    # Guarantee a parent in an earlier level for every non-entry task …
    has_parent = {v for _, v in edges}
    for level in levels[1:]:
        for v in level:
            if v not in has_parent:
                u = int(rng.integers(0, level[0]))  # drawn before the data size
                edges[(u, v)] = lo_b + span_b * random()
    # … and a child in a later level for every non-exit task.
    has_child = {u for u, _ in edges}
    for li, level in enumerate(levels[:-1]):
        first_later = levels[li + 1][0]
        for u in level:
            if u not in has_child:
                v = first_later + int(rng.integers(0, n - first_later))
                edges[(u, v)] = lo_b + span_b * random()

    # Placement constraints: hardware requirement per task (0 = any).
    requirements = np.zeros(n, dtype=int)
    if params.num_hardware_types > 1:
        constrained = rng.random(n) < params.constraint_prob
        requirements[constrained] = rng.integers(
            1, params.num_hardware_types, size=int(constrained.sum())
        )

    return TaskGraph(
        compute=tuple(compute),
        edges=edges,
        requirements=tuple(int(r) for r in requirements),
        name=name or f"random-dag-{n}",
    )
