"""Placement quality metrics: SLR, total cost, energy (paper §5, §B.8).

The Schedule Length Ratio normalizes makespan by an instance-dependent
lower bound:

    SLR = makespan / Σ_{v_i ∈ CP_MIN} min_{d_j ∈ D_i} w_{i,j}

where CP_MIN is the critical path computed with each task's minimum
feasible compute cost (communication excluded, as in Topcuoglu et al.).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .latency import CostModel

__all__ = ["cp_min_lower_bound", "total_cost", "energy_cost"]


def cp_min_lower_bound(cost_model: CostModel) -> float:
    """Sum of minimum compute costs along the min-cost critical path."""
    return cost_model.cp_min_lower_bound


def total_cost(cost_model: CostModel, placement: Sequence[int]) -> float:
    """Σ_i w_{i,M(i)} + Σ_{ij} c_{ij,M(i)M(j)} — the §B.8 cost objective."""
    graph = cost_model.graph
    placement = list(placement)
    cost = sum(cost_model.compute_time(i, placement[i]) for i in range(graph.num_tasks))
    cost += sum(
        cost_model.comm_time((u, v), placement[u], placement[v]) for (u, v) in graph.edges
    )
    return float(cost)


def energy_cost(cost_model: CostModel, placement: Sequence[int]) -> float:
    """Energy model: compute time × device power + comm time × link power
    (0.5 per ms).

    The paper demonstrates objective generality by "simply switching to a
    different reward function" (Fig. 11 right); this weighted-cost model
    is that alternative objective.  Devices carry ``compute_power``
    (replacement devices in the churn process get higher power, i.e.
    higher cost, per §5).
    """
    graph, network = cost_model.graph, cost_model.network
    placement = list(placement)
    energy = sum(
        cost_model.compute_time(i, placement[i]) * network.devices[placement[i]].compute_power
        for i in range(graph.num_tasks)
    )
    energy += 0.5 * sum(
        cost_model.comm_time((u, v), placement[u], placement[v]) for (u, v) in graph.edges
    )
    return float(energy)
