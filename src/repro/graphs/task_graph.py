"""Task graph: the application DAG of the placement problem (paper §3).

Nodes are computation tasks with a compute requirement ``C_i`` and an
optional hardware requirement (placement constraint); edges carry the
amount of data ``B_ij`` transferred between dependent tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = ["TaskGraph"]


@dataclass(frozen=True)
class TaskGraph:
    """Immutable directed acyclic task graph.

    Parameters
    ----------
    compute:
        ``compute[i]`` is the compute requirement ``C_i`` of task ``i``
        (execution time = ``C_i / SP_k`` on device ``k``, Eq. 2).
    edges:
        Mapping ``(u, v) -> B_uv`` (bytes of data sent from ``u`` to ``v``).
    requirements:
        ``requirements[i]`` is the hardware type task ``i`` needs
        (``0`` denotes "any device"; see :mod:`repro.devices.network`).
    name:
        Optional label used in experiment reports.
    """

    compute: tuple[float, ...]
    edges: Mapping[tuple[int, int], float]
    requirements: tuple[int, ...] = ()
    name: str = "task-graph"
    # Derived structures, filled in __post_init__.
    parents: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    children: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    topo_order: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        n = len(self.compute)
        if n == 0:
            raise ValueError("task graph must have at least one task")
        if any(c < 0 for c in self.compute):
            raise ValueError("compute requirements must be non-negative")
        reqs = self.requirements or tuple([0] * n)
        if len(reqs) != n:
            raise ValueError("requirements length must match number of tasks")
        object.__setattr__(self, "requirements", tuple(int(r) for r in reqs))
        object.__setattr__(self, "compute", tuple(float(c) for c in self.compute))

        edges = {}
        for (u, v), b in dict(self.edges).items():
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) references unknown task")
            if u == v:
                raise ValueError(f"self-loop on task {u}")
            if b < 0:
                raise ValueError(f"negative data size on edge ({u},{v})")
            edges[(int(u), int(v))] = float(b)
        object.__setattr__(self, "edges", edges)

        parents: list[list[int]] = [[] for _ in range(n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            parents[v].append(u)
            children[u].append(v)
        object.__setattr__(self, "parents", tuple(tuple(sorted(p)) for p in parents))
        object.__setattr__(self, "children", tuple(tuple(sorted(c)) for c in children))
        object.__setattr__(self, "topo_order", self._toposort(n, parents, children))

    @staticmethod
    def _toposort(n: int, parents: Sequence[Sequence[int]], children: Sequence[Sequence[int]]) -> tuple[int, ...]:
        indeg = [len(p) for p in parents]
        frontier = [i for i in range(n) if indeg[i] == 0]
        order: list[int] = []
        while frontier:
            node = frontier.pop()
            order.append(node)
            for child in children[node]:
                indeg[child] -= 1
                if indeg[child] == 0:
                    frontier.append(child)
        if len(order) != n:
            raise ValueError("task graph contains a cycle")
        return tuple(order)

    # -- structure queries ----------------------------------------------------

    @property
    def num_tasks(self) -> int:
        return len(self.compute)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def entries(self) -> tuple[int, ...]:
        """Tasks with no parents."""
        return tuple(i for i in range(self.num_tasks) if not self.parents[i])

    @property
    def depth(self) -> int:
        """Length (in nodes) of the longest path — the graph's depth."""
        level = [0] * self.num_tasks
        for v in self.topo_order:
            for u in self.parents[v]:
                level[v] = max(level[v], level[u] + 1)
        return max(level) + 1

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, data)`` arrays of the edges, in ``edges`` iteration order."""
        ends = np.array(list(self.edges), dtype=np.int64).reshape(self.num_edges, 2)
        data = np.array(list(self.edges.values()), dtype=np.float64)
        return ends[:, 0].copy(), ends[:, 1].copy(), data

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, tasks={self.num_tasks}, "
            f"edges={self.num_edges}, depth={self.depth})"
        )
