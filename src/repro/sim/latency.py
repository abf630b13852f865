"""Latency models: expected computation and communication times.

Synthetic model (Appendix B.5, Eqs. 2-3):

    w_{i,k}    = C_i / SP_k
    c_{ij,kl}  = DL_kl + B_ij / BW_kl

With noise σ the realizations are uniform on ±σ around the expectation.
The case study swaps in a measured affine model ``w = C_i·T_j + S_j``
by supplying ``compute_matrix`` directly.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..devices.network import DeviceNetwork
from ..graphs.task_graph import TaskGraph

__all__ = ["CostModel"]


class CostModel:
    """Expected compute/communication times for one (graph, network) pair.

    Parameters
    ----------
    graph, network:
        The placement problem instance.
    compute_matrix:
        Optional (num_tasks, num_devices) matrix of expected compute
        times ``w_{i,k}``, overriding the default ``C_i / SP_k`` — used
        by the case study's measured latency model.  Entries for
        infeasible (task, device) pairs are ignored by callers.
    """

    def __init__(
        self,
        graph: TaskGraph,
        network: DeviceNetwork,
        compute_matrix: np.ndarray | None = None,
    ) -> None:
        self.graph = graph
        self.network = network
        if compute_matrix is None:
            compute_matrix = np.outer(graph.compute, 1.0 / network.speeds)
        else:
            compute_matrix = np.asarray(compute_matrix, dtype=np.float64)
            expected = (graph.num_tasks, network.num_devices)
            if compute_matrix.shape != expected:
                raise ValueError(f"compute_matrix must be {expected}, got {compute_matrix.shape}")
            if (compute_matrix < 0).any():
                raise ValueError("compute times must be non-negative")
        self.W = compute_matrix
        self.feasible_sets = network.feasible_sets(graph.requirements)

    # -- expectations -----------------------------------------------------------

    def compute_time(self, task: int, device: int) -> float:
        """Expected execution time w_{i,k} (Eq. 2)."""
        return float(self.W[task, device])

    def comm_time(self, edge: tuple[int, int], src_dev: int, dst_dev: int) -> float:
        """Expected transmission time c_{ij,kl} (Eq. 3); 0 if co-located."""
        if src_dev == dst_dev:
            return 0.0
        data = self.graph.edges[edge]
        network = self.network
        return float(
            network.delay[src_dev, dst_dev] + data * network.inv_bandwidth[src_dev, dst_dev]
        )

    def comm_time_matrix(self, edge: tuple[int, int]) -> np.ndarray:
        """(m, m) matrix of c_{ij,kl} over all device pairs for one edge."""
        return self.network.delay + self.graph.edges[edge] * self.network.inv_bandwidth

    @cached_property
    def feasible_mask(self) -> np.ndarray:
        """``(num_tasks, num_devices)`` bools: ``[i, d]`` iff ``d in feasible_sets[i]``."""
        mask = np.zeros((self.graph.num_tasks, self.network.num_devices), dtype=bool)
        for row, feasible in zip(mask, self.feasible_sets):
            row[list(feasible)] = True
        return mask

    def mean_compute_time(self, task: int) -> float:
        """Average w_{i,k} over the task's feasible devices (HEFT-style)."""
        return float(self.W[task, list(self.feasible_sets[task])].mean())

    @cached_property
    def cp_min_lower_bound(self) -> float:
        """Σ of minimum compute costs along the min-cost critical path.

        The SLR denominator (see :mod:`repro.sim.metrics`); a constant of
        the (graph, network) pair, so computed once per cost model.
        """
        graph = self.graph
        # Longest path (node-weighted) via topological dynamic programming.
        path_cost = [0.0] * graph.num_tasks
        cost_of = path_cost.__getitem__
        rows, parents, feasible = self.W.tolist(), graph.parents, self.feasible_sets
        for v in graph.topo_order:
            incoming = max(map(cost_of, parents[v])) if parents[v] else 0.0
            # v's minimum feasible compute time, from one W.tolist()
            path_cost[v] = incoming + min(map(rows[v].__getitem__, feasible[v]))
        bound = max(path_cost)
        # All-zero-compute graphs (possible after grouping edge cases):
        # fall back to 1 so SLR stays finite and comparable.
        return bound if bound > 0.0 else 1.0

    def mean_comm_time(self, edge: tuple[int, int]) -> float:
        """Average c_{ij,kl} over distinct device pairs (HEFT rank costs)."""
        m = self.network.num_devices
        if m == 1:
            return 0.0
        mat = self.comm_time_matrix(edge)
        off_diag = ~np.eye(m, dtype=bool)
        return float(mat[off_diag].mean())

    # -- noisy realizations --------------------------------------------------------

    @staticmethod
    def realize(expected: float, noise: float, rng: np.random.Generator | None) -> float:
        """Sample a realization uniform on [x(1-σ), x(1+σ)] (Appendix B.5)."""
        if noise == 0.0 or rng is None or expected == 0.0:
            return expected
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        return float(expected * rng.uniform(1.0 - noise, 1.0 + noise))

