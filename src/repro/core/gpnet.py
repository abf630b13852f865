"""gpNet: the universal graph representation of a placement (paper §4.2.1).

Given a placement P = (G, N, M), gpNet produces a graph H whose nodes are
all feasible (task, device) pairs and whose edges connect placement
options of dependent tasks when at least one endpoint is a *pivot* (a
node of the current placement).  Each node of H is simultaneously an
action of the search MDP.

Sizes (paper §4.2.1):  |V_H| = Σ_i |D_i|,   |E_H| = Σ_i |D_i|·|E_i| − |E|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .placement import PlacementProblem

__all__ = ["GpNet", "build_gpnet"]


@dataclass(frozen=True)
class GpNet:
    """The gpNet graph H in array form, ready for batched message passing.

    Attributes
    ----------
    task_of / device_of: per-node labels — node ``u`` is the pair
        ``(task_of[u], device_of[u])``; taking action ``u`` places that
        task on that device.
    is_pivot: nodes belonging to the current placement M.
    options: ``options[i]`` = node indices of O_i (all placements of task i).
    edge_src / edge_dst: H's edges (aligned arrays).
    node_features / edge_features: raw feature matrices x^n and x^e.
    placement: the placement M that H encodes.
    """

    task_of: np.ndarray
    device_of: np.ndarray
    is_pivot: np.ndarray
    options: tuple[np.ndarray, ...]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    node_features: np.ndarray
    edge_features: np.ndarray
    placement: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.task_of)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)

    @cached_property
    def edge_features_fm(self) -> np.ndarray:
        """C-contiguous ``edge_features.T``, copied once for both GNN directions."""
        return np.ascontiguousarray(self.edge_features.T)

    def node_index(self, task: int, device: int) -> int:
        """Index of the node labeled (task, device); KeyError if infeasible."""
        opts = self.options[task]
        matches = opts[self.device_of[opts] == device]
        if len(matches) == 0:
            raise KeyError(f"({task}, {device}) is not a feasible placement option")
        return int(matches[0])

    def action_of(self, node: int) -> tuple[int, int]:
        """The (task, device) action encoded by ``node``."""
        return int(self.task_of[node]), int(self.device_of[node])


def build_gpnet(
    problem: PlacementProblem,
    placement: Sequence[int],
    node_features: np.ndarray,
    edge_feature_fn,
) -> GpNet:
    """Construct H per Algorithm "gpNet" (paper Appendix B.1).

    ``node_features`` must already be computed per option (see
    :mod:`repro.core.features`, which owns the f_n feature map);
    ``edge_feature_fn(edge, src_dev, dst_dev) -> vector`` is f_e.
    """
    graph = problem.graph
    placement = problem.validate_placement(placement)

    # Node generation: one node per feasible (task, device) pair.
    task_of: list[int] = []
    device_of: list[int] = []
    options: list[np.ndarray] = []
    pivot_node: list[int] = []
    for i, feas in enumerate(problem.feasible_sets):
        start = len(task_of)
        for d in feas:
            task_of.append(i)
            device_of.append(d)
        opts = np.arange(start, len(task_of))
        options.append(opts)
        pivot_node.append(start + feas.index(placement[i]))

    num_nodes = len(task_of)
    is_pivot = np.zeros(num_nodes, dtype=bool)
    is_pivot[pivot_node] = True

    if node_features.shape[0] != num_nodes:
        raise ValueError(
            f"node_features has {node_features.shape[0]} rows for {num_nodes} gpNet nodes"
        )

    # Edge generation: (u1, u2) for each task edge (i, j) when u1 or u2 is
    # a pivot.  Equivalently: pivot_i -> every option of j, plus every
    # option of i -> pivot_j (the pivot-pivot pair deduplicated).
    src: list[int] = []
    dst: list[int] = []
    efeat: list[np.ndarray] = []
    device_of_arr = np.array(device_of)
    for (i, j) in graph.edges:
        pi, pj = pivot_node[i], pivot_node[j]
        for u2 in options[j]:
            src.append(pi)
            dst.append(int(u2))
            efeat.append(edge_feature_fn((i, j), placement[i], int(device_of_arr[u2])))
        for u1 in options[i]:
            if int(u1) == pi:
                continue  # (pivot_i, pivot_j) already added above
            src.append(int(u1))
            dst.append(pj)
            efeat.append(edge_feature_fn((i, j), int(device_of_arr[u1]), placement[j]))

    edge_features = (
        np.array(efeat, dtype=np.float64) if efeat else np.zeros((0, 4), dtype=np.float64)
    )
    return GpNet(
        task_of=np.array(task_of, dtype=np.int64),
        device_of=device_of_arr.astype(np.int64),
        is_pivot=is_pivot,
        options=tuple(options),
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        node_features=np.asarray(node_features, dtype=np.float64),
        edge_features=edge_features,
        placement=placement,
    )
