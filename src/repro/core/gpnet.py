"""gpNet: the universal graph representation of a placement (paper §4.2.1).

Given a placement P = (G, N, M), gpNet produces a graph H whose nodes are
all feasible (task, device) pairs and whose edges connect placement
options of dependent tasks when at least one endpoint is a *pivot* (a
node of the current placement).  Each node of H is simultaneously an
action of the search MDP.  :class:`repro.core.features.GpNetBuilder`
builds them (its per-edge Algorithm "gpNet" oracle is in ``tests/``).

Sizes (paper §4.2.1):  |V_H| = Σ_i |D_i|,   |E_H| = Σ_i |D_i|·|E_i| − |E|.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["GpNet"]


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

    def action_of(self, node: int) -> tuple[int, int]:
        """The (task, device) action encoded by ``node``."""
        return int(self.task_of[node]), int(self.device_of[node])
