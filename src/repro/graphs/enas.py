"""ENAS-style deep-learning computation graphs (paper §5.2, Appendix B.3).

The paper evaluates on computation graphs of recurrent cells found by
ENAS on Penn Treebank: 10 sampled cell designs × 30 (unroll steps,
batch size) variants = 300 graphs of 200-300 operators.  ENAS itself is
not available offline, so this module generates cells from the same
search space (per-node {activation, predecessor} choices, Fig. 13) and
unrolls them with realistic relative costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .task_graph import TaskGraph

__all__ = ["CellDesign", "sample_cell_design", "unroll_cell", "generate_enas_dataset"]

_ACTIVATIONS = ("tanh", "relu", "sigmoid", "identity")

# Relative compute weight of a cell node: the matmul dominates; the
# activation adds a small overhead except identity.
_ACT_COST = {"tanh": 1.1, "relu": 1.05, "sigmoid": 1.1, "identity": 1.0}

# §B.3's variant ranges (inclusive): unroll steps and batch size.
_STEPS_RANGE = (20, 30)
_BATCH_RANGE = (80, 150)


@dataclass(frozen=True)
class CellDesign:
    """A recurrent cell from the ENAS search space.

    ``predecessors[i]`` is the cell-local input of node ``i`` (node 0 reads
    the step input x_t combined with the recurrent state h_{t-1});
    ``activations[i]`` its nonlinearity.  Loose ends (nodes that feed no
    other node) are averaged to form the cell output, as in ENAS.
    """

    predecessors: tuple[int, ...]
    activations: tuple[str, ...]
    name: str = "enas-cell"

    def __post_init__(self) -> None:
        if len(self.predecessors) != len(self.activations):
            raise ValueError("predecessors and activations must have equal length")
        if len(self.predecessors) < 1:
            raise ValueError("cell needs at least one node")
        if self.predecessors[0] != -1:
            raise ValueError("node 0 must read the step input (predecessor -1)")
        for i, p in enumerate(self.predecessors[1:], start=1):
            if not 0 <= p < i:
                raise ValueError(f"node {i} must read an earlier node, got {p}")
        for act in self.activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")

    @property
    def num_nodes(self) -> int:
        return len(self.predecessors)

    def loose_ends(self) -> tuple[int, ...]:
        used = set(self.predecessors[1:])
        return tuple(i for i in range(self.num_nodes) if i not in used)


def sample_cell_design(
    rng: np.random.Generator, num_nodes: int | None = None, name: str = "enas-cell"
) -> CellDesign:
    """Sample a cell uniformly from the ENAS recurrent search space."""
    if num_nodes is None:
        num_nodes = int(rng.integers(8, 13))  # ENAS PTB cells use ~12 nodes
    preds = [-1]
    acts = [str(rng.choice(_ACTIVATIONS))]
    for i in range(1, num_nodes):
        preds.append(int(rng.integers(0, i)))
        acts.append(str(rng.choice(_ACTIVATIONS)))
    return CellDesign(tuple(preds), tuple(acts), name)


def unroll_cell(
    design: CellDesign,
    steps: int,
    batch_size: int,
    hidden_size: int = 64,
    name: str | None = None,
) -> TaskGraph:
    """Unroll a recurrent cell into a computation DAG over ``steps`` steps.

    Operators per step: one input-prep op (embedding lookup + concat with
    h_{t-1}), one op per cell node, and one output-averaging op whose
    result is the recurrent state consumed by step t+1.  A final
    projection op closes the graph, so the DAG is single-exit; the step-0
    input op is its single entry (subsequent input ops hang off a chain
    of zero-data ordering edges, matching how the embedded sequence is
    produced sequentially).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if batch_size < 1 or hidden_size < 1:
        raise ValueError("batch and hidden sizes must be positive")

    # Cost scales: one cell node is roughly a (batch x hidden) @ (hidden x
    # hidden) matmul; data on an edge is a (batch x hidden) activation.
    node_cost = batch_size * hidden_size / 64.0
    edge_data = float(batch_size * hidden_size)

    compute: list[float] = []
    edges: dict[tuple[int, int], float] = {}

    def add_op(cost: float) -> int:
        compute.append(cost)
        return len(compute) - 1

    prev_state: int | None = None  # op producing h_{t-1}
    prev_input: int | None = None  # previous step's input op (ordering chain)
    for _ in range(steps):
        inp = add_op(0.5 * node_cost)  # embedding + concat
        if prev_input is not None:
            edges[(prev_input, inp)] = 0.0  # sequence ordering, no payload
        if prev_state is not None:
            edges[(prev_state, inp)] = edge_data
        prev_input = inp

        node_ops: list[int] = []
        for local, (pred, act) in enumerate(zip(design.predecessors, design.activations)):
            op = add_op(_ACT_COST[act] * node_cost)
            src = inp if pred == -1 else node_ops[pred]
            edges[(src, op)] = edge_data
            node_ops.append(op)

        avg = add_op(0.2 * node_cost * len(design.loose_ends()))
        for le in design.loose_ends():
            edges[(node_ops[le], avg)] = edge_data
        prev_state = avg

    # Final projection / loss over the last hidden state.
    out = add_op(2.0 * node_cost)
    edges[(prev_state, out)] = edge_data

    return TaskGraph(
        compute=tuple(compute),
        edges=edges,
        name=name or f"{design.name}-T{steps}-B{batch_size}",
    )


def generate_enas_dataset(
    rng: np.random.Generator,
    num_designs: int = 10,
    variants_per_design: int = 30,
) -> list[TaskGraph]:
    """The §B.3 dataset: designs × (unroll steps, batch size) variants."""
    graphs: list[TaskGraph] = []
    for d in range(num_designs):
        design = sample_cell_design(rng, name=f"enas-cell-{d}")
        for v in range(variants_per_design):
            steps = int(rng.integers(_STEPS_RANGE[0], _STEPS_RANGE[1] + 1))
            batch = int(rng.integers(_BATCH_RANGE[0], _BATCH_RANGE[1] + 1))
            graphs.append(
                unroll_cell(design, steps, batch, name=f"enas-{d}-{v}-T{steps}-B{batch}")
            )
    return graphs
