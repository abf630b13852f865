"""Placement problems and placements (paper §3).

A placement maps every task of an application graph onto a feasible
device of the target network: ``M : V -> D`` with ``M(v_i) ∈ D_i``.
"""

from __future__ import annotations

import operator
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from ..devices.network import DeviceNetwork
from ..graphs.task_graph import TaskGraph
from ..sim.latency import CostModel

__all__ = ["PlacementProblem", "random_placement"]


@dataclass(frozen=True)
class PlacementProblem:
    """One problem instance (G, N): a task graph on a device network.

    Bundles the cost model (expected compute/communication times) and the
    per-task feasible device sets so that policies, baselines and the
    simulator all agree on the instance's semantics.
    """

    graph: TaskGraph
    network: DeviceNetwork
    cost_model: CostModel = field(default=None, compare=False)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.cost_model is None:
            object.__setattr__(self, "cost_model", CostModel(self.graph, self.network))
        elif self.cost_model.graph is not self.graph or self.cost_model.network is not self.network:
            raise ValueError("cost_model must be built for this graph/network pair")

    @property
    def feasible_sets(self) -> list[tuple[int, ...]]:
        """D_i for every task i (dense device indices)."""
        return self.cost_model.feasible_sets

    @property
    def num_actions(self) -> int:
        """|A_{G,N}| = Σ_i |D_i| (paper §4.1)."""
        return sum(len(s) for s in self.feasible_sets)

    def state_space_size(self) -> float:
        """|S_{G,N}| = Π_i |D_i| (can overflow int; returned as float)."""
        return float(np.prod([float(len(s)) for s in self.feasible_sets]))

    def validate_placement(self, placement: Sequence[int]) -> tuple[int, ...]:
        """Check feasibility and return the placement as a tuple of ints
        (``operator.index``: a float or a string is refused, not truncated)."""
        placement = tuple(placement)
        try:
            placement = tuple(map(operator.index, placement))
        except TypeError:
            for i, d in enumerate(placement):  # name the first element refused
                try:
                    operator.index(d)
                except TypeError:
                    raise ValueError(f"task {i}: device index must be an int, not {d!r}") from None
            raise
        if len(placement) != self.graph.num_tasks:
            raise ValueError(
                f"placement length {len(placement)} != {self.graph.num_tasks} tasks"
            )
        for i, (d, feasible) in enumerate(zip(placement, self.cost_model.feasible_sets)):
            if d not in feasible:
                raise ValueError(f"task {i} placed on infeasible device index {d}")
        return placement

    def validate_many(
        self, placements: Sequence[Sequence[int]]
    ) -> tuple[list[tuple[int, ...]], np.ndarray]:
        """``[validate_placement(p) for p in placements]`` and its rows as an
        int64 array.  Exact-``int`` rows of the right length are checked as
        one array (and returned as they came); anything else — bools, NumPy
        ints, floats, ragged rows, overflow, a bad device — takes the loop."""
        keys = list(map(tuple, placements))
        n, rows = self.graph.num_tasks, None
        if set(map(len, keys)) <= {n} and set(map(type, chain.from_iterable(keys))) <= {int}:
            with suppress(OverflowError):  # beyond int64: out of range anyway
                rows = np.fromiter(chain.from_iterable(keys), np.int64, len(keys) * n)
                rows = rows.reshape(len(keys), n)
        # The range first: a negative index would wrap.
        if (
            rows is not None
            and (not rows.size or rows.min() >= 0 and rows.max() < self.network.num_devices)
            and self.cost_model.feasible_mask[np.arange(n), rows].all()
        ):
            return keys, rows
        keys = [self.validate_placement(p) for p in keys]
        return keys, np.array(keys, dtype=np.int64).reshape(len(keys), n)


def random_placement(
    problem: PlacementProblem, rng: np.random.Generator
) -> tuple[int, ...]:
    """Uniformly sample a feasible placement — the paper's random baseline
    and the initial state of every search episode.

    One bounded-integer draw per task — the draw ``rng.choice(list(feas))``
    makes, so seeded streams are unchanged (pinned against ``choice`` in
    ``tests/core/test_env.py``).
    """
    return tuple(feas[int(rng.integers(0, len(feas)))] for feas in problem.feasible_sets)

