"""Test oracles: what the shipped GNN sweep and its frontier plan replaced.

``repro.core.gnn._two_way`` runs both directions of Eq. 1 as a single
tape node with a hand-written backward, advancing level ``l`` of both
together.  This module keeps what it replaced, so the tests can demand
the same floats:

* the **per-task loop** (:func:`two_way_reference`) — one Python
  iteration per task, one ``Tensor`` per node, the edge half of every
  message computed on the slice that needs it — pins the *forward*.
  Nothing in it reads the shipped
  :class:`~repro.core.features.GpNetStructure`: the task order comes
  from the set-comprehension level oracle below
  (:func:`levels_from_every_gpnet_edge`) and the per-task edge groups
  are recomputed from the net's endpoints.
* the **composed per-level sweep** (:func:`sweep_composed`), one
  direction at a time on the shipped plan's levels
  (:func:`directions`), each level written as ordinary tape ops
  (gather → linear → relu → segment aggregate → linear → relu → row
  scatter), the two summaries joined by ``concat``
  (:func:`two_way_composed`), with GiPH's edge half of every message
  computed once per pass by one ``F.linear`` over all edges on slices of
  ``h1.weight`` (:func:`message`) — pins the *gradients*, bit for bit:
  the shipped backward must run the float operations this tape runs, in
  the same order.
* the **sort-based structure** (:func:`structure_reference`) — per-task
  edge groups by a stable argsort of every gpNet edge, a Kahn pass per
  direction, one concatenation per level, the two directions then
  interleaved level by level — pins
  :meth:`~repro.core.features.GpNetStructure.from_gpnet`'s run-based
  lock-step plan array for array.
* **Algorithm "gpNet"** (:func:`build_gpnet`, paper App. B.1), one
  Python call per gpNet edge — pins ``GpNetBuilder.build``'s whole-block
  edge writer; :func:`node_index` finds a (task, device) node in any net.
"""

from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from repro.core import gnn
from repro.core.features import GpNetStructure, structure_of
from repro.core.gnn import EMBED_DIM, _NoEdgeDirectionalPass
from repro.core.gpnet import GpNet
from repro.nn import Tensor, as_tensor, concat, stack
from repro.nn import functional as F

__all__ = [
    "build_gpnet",
    "node_index",
    "message",
    "scatter_rows",
    "two_way_reference",
    "reference_path",
    "sweep_composed",
    "two_way_composed",
    "composed_path",
    "levels_from_every_gpnet_edge",
    "structure_reference",
    "directions",
    "level_bounds",
]


def build_gpnet(problem, placement, node_features, edge_feature_fn):
    """Construct H per Algorithm "gpNet" (paper Appendix B.1).

    ``node_features`` must already be computed per option;
    ``edge_feature_fn(edge, src_dev, dst_dev) -> vector`` is f_e.
    """
    graph = problem.graph
    placement = problem.validate_placement(placement)

    # Node generation: one node per feasible (task, device) pair.
    task_of, device_of, options, pivot_node = [], [], [], []
    for i, feas in enumerate(problem.feasible_sets):
        start = len(task_of)
        for d in feas:
            task_of.append(i)
            device_of.append(d)
        options.append(np.arange(start, len(task_of)))
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
    src, dst, efeat = [], [], []
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


def node_index(net, task, device):
    """Index of ``net``'s node labeled (task, device); KeyError if infeasible."""
    opts = net.options[task]
    matches = opts[net.device_of[opts] == device]
    if len(matches) == 0:
        raise KeyError(f"({task}, {device}) is not a feasible placement option")
    return int(matches[0])


def levels_from_every_gpnet_edge(src_tasks, dst_tasks, num_tasks):
    """Longest-path task levels with the task edges recovered by a Python
    set comprehension over *every* gpNet edge — how the shipped levels
    were first found.  Also gives :func:`two_way_reference` its task order."""
    children = [[] for _ in range(num_tasks)]
    indeg = [0] * num_tasks
    for s, d in sorted({(int(a), int(b)) for a, b in zip(src_tasks, dst_tasks)}):
        children[s].append(d)
        indeg[d] += 1
    level = [0] * num_tasks
    frontier = [t for t in range(num_tasks) if indeg[t] == 0]
    while frontier:
        t = frontier.pop()
        for c in children[t]:
            level[c] = max(level[c], level[t] + 1)
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
    return np.array(level, dtype=np.int64)


def _group_edges_by_task(edge_tasks, num_tasks):
    """gpNet edge indices grouped by the task id in ``edge_tasks``, each
    group ascending (stable sort)."""
    order = np.argsort(edge_tasks, kind="stable")
    bounds = np.searchsorted(edge_tasks[order], np.arange(num_tasks + 1))
    return [order[bounds[t] : bounds[t + 1]] for t in range(num_tasks)]


def _task_topo_levels(src_tasks, dst_tasks, num_tasks):
    """Longest-path levels by a Kahn pass over the sorted, deduplicated
    task pairs; raises on a cyclic task order."""
    children = [[] for _ in range(num_tasks)]
    indeg = np.zeros(num_tasks, dtype=np.int64)
    keys = np.sort(src_tasks * num_tasks + dst_tasks, kind="stable")
    pairs = keys[np.flatnonzero(np.diff(keys, prepend=-1))]
    for s, d in zip((pairs // num_tasks).tolist(), (pairs % num_tasks).tolist()):
        children[s].append(d)
        indeg[d] += 1
    level = np.zeros(num_tasks, dtype=np.int64)
    frontier = [t for t in range(num_tasks) if indeg[t] == 0]
    seen = 0
    while frontier:
        t = frontier.pop()
        seen += 1
        for c in children[t]:
            level[c] = max(level[c], level[t] + 1)
            indeg[c] -= 1
            if indeg[c] == 0:
                frontier.append(c)
    if seen != num_tasks:
        raise RuntimeError("gpNet induced a cyclic task order")
    return level


class Level(NamedTuple):
    """One frontier of one direction: its tasks (ascending), their option
    nodes, and the gpNet edges into them, grouped by receiving task."""

    tasks: tuple[int, ...]
    nodes: np.ndarray
    edge_idx: np.ndarray


class Direction(NamedTuple):
    """One direction's levels; ``node_local`` maps a node id to its row
    within its level's ``nodes``."""

    levels: tuple[Level, ...]
    node_local: np.ndarray


def _plan_reference(net, level_of, groups):
    node_local = np.zeros(net.num_nodes, dtype=np.int64)
    levels = []
    num_levels = int(level_of.max()) + 1 if len(level_of) else 0
    for lv in range(num_levels):
        tasks = tuple(int(t) for t in np.flatnonzero(level_of == lv))
        parts, pos = [], 0
        for t in tasks:
            opts = net.options[t]
            node_local[opts] = np.arange(pos, pos + len(opts))
            pos += len(opts)
            parts.append(opts)
        nodes = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        group_parts = [groups[t] for t in tasks if len(groups[t])]
        edge_idx = np.concatenate(group_parts) if group_parts else np.empty(0, dtype=np.int64)
        levels.append(Level(tasks=tasks, nodes=nodes, edge_idx=edge_idx))
    return Direction(levels=tuple(levels), node_local=node_local)


def _lockstep(net, forward, backward):
    """Interleave two directions' levels into one lock-step structure:
    per level the forward ids, then the backward ids shifted by N
    (nodes) or E (edges)."""
    assert len(forward.levels) == len(backward.levels)
    n, m = net.num_nodes, net.num_edges
    nodes, edges, row_bounds, edge_bounds = [], [], [0], [0]
    for f, b in zip(forward.levels, backward.levels):
        nodes += [f.nodes, b.nodes + n]
        edges += [f.edge_idx, b.edge_idx + m]
        for part in (f, b):
            row_bounds.append(row_bounds[-1] + len(part.nodes))
            edge_bounds.append(edge_bounds[-1] + len(part.edge_idx))
    empty = np.empty(0, dtype=np.int64)
    nodes = np.concatenate(nodes) if nodes else empty
    node_row = np.zeros(2 * n, dtype=np.int64)
    node_row[nodes] = np.arange(len(nodes))
    return GpNetStructure(
        nodes=nodes,
        edges=np.concatenate(edges) if edges else empty,
        node_row=node_row,
        row_bounds=np.array(row_bounds, dtype=np.int64),
        edge_bounds=np.array(edge_bounds, dtype=np.int64),
    )


def level_bounds(structure):
    """Per level ``(n0, n1, e0, e1, nf, ef)``: its rows and plan edges,
    and how many of each are forward."""
    nb, eb = structure.row_bounds.tolist(), structure.edge_bounds.tolist()
    return [
        (nb[k], nb[k + 2], eb[k], eb[k + 2], nb[k + 1] - nb[k], eb[k + 1] - eb[k])
        for k in range(0, len(nb) - 1, 2)
    ]


def structure_reference(net):
    """Drop-in for ``GpNetStructure.from_gpnet``: the sort-based derivation."""
    num_tasks = len(net.options)
    src_tasks = net.task_of[net.edge_src]
    dst_tasks = net.task_of[net.edge_dst]
    forward = _plan_reference(
        net,
        _task_topo_levels(src_tasks, dst_tasks, num_tasks),
        _group_edges_by_task(dst_tasks, num_tasks),
    )
    backward = _plan_reference(
        net,
        _task_topo_levels(dst_tasks, src_tasks, num_tasks),
        _group_edges_by_task(src_tasks, num_tasks),
    )
    return _lockstep(net, forward, backward)


def directions(structure, net):
    """The forward and backward :class:`Direction` a lock-step structure
    holds, un-doubled: what one direction's sweep reads."""
    n, m = net.num_nodes, net.num_edges
    out = []
    for d in (0, 1):
        levels, node_local = [], np.zeros(n, dtype=np.int64)
        for n0, n1, e0, e1, nf, ef in level_bounds(structure):
            nodes = structure.nodes[n0 + nf : n1] - n if d else structure.nodes[n0 : n0 + nf]
            edge_idx = structure.edges[e0 + ef : e1] - m if d else structure.edges[e0 : e0 + ef]
            node_local[nodes] = structure.node_row[nodes + d * n] - n0 - d * nf
            tasks = tuple(int(t) for t in np.unique(net.task_of[nodes]))
            levels.append(Level(tasks=tasks, nodes=nodes, edge_idx=edge_idx))
        out.append(Direction(levels=tuple(levels), node_local=node_local))
    return tuple(out)


def _aggregate(values, segment_ids, num_segments, how):
    op = F.segment_mean if how == "mean" else F.segment_sum
    return op(values, segment_ids, num_segments)


def scatter_rows(
    base: Tensor, indices: np.ndarray, rows: Tensor, assume_unique: bool = False
) -> Tensor:
    """Out-of-place row scatter: ``out = base; out[indices] = rows``.

    ``indices`` must be unique — with duplicates the forward would be
    write-order dependent and the gradient ill-defined.  The composed
    sweep below finalizes one frontier level of node embeddings per call
    with this; nothing in ``src/`` writes rows on the tape any more, so
    the op lives here (``tests/nn/test_segment_ops.py`` grad-checks it).
    ``assume_unique`` skips the uniqueness check for callers whose
    indices come from a static, already-validated plan.
    """
    base = as_tensor(base)
    rows = as_tensor(rows)
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim != 1 or len(indices) != rows.shape[0]:
        raise ValueError("indices must be 1-D and match rows' first axis")
    if not assume_unique and len(np.unique(indices)) != len(indices):
        raise ValueError("scatter_rows indices must be unique")
    out_data = base.data.copy()
    out_data[indices] = rows.data

    def backward(grad: np.ndarray) -> None:
        if rows.requires_grad:
            rows._accumulate(grad[indices])
        if base.requires_grad:
            masked = grad.copy()
            masked[indices] = 0.0
            base._accumulate(masked)

    return Tensor._make(out_data, (base, rows), backward, "scatter_rows")


def _sweep_reference(layer, gpnet, x, task_order, groups, reverse, message):
    """One direction of Eq. 1, one task at a time, in ``task_order``."""
    n = gpnet.num_nodes
    if reverse:
        edge_from, edge_to = gpnet.edge_dst, gpnet.edge_src
    else:
        edge_from, edge_to = gpnet.edge_src, gpnet.edge_dst
    node_emb = [None] * n
    for task in task_order:
        opts = gpnet.options[task]
        local = {int(u): k for k, u in enumerate(opts)}
        idx = groups[task]
        x_group = x[opts]
        if len(idx) == 0:
            agg = Tensor(np.zeros((len(opts), layer.h1.out_features)))
        else:
            sender_emb = stack([node_emb[int(s)] for s in edge_from[idx]], axis=0)
            msg = message(sender_emb, idx)
            local_ids = np.array([local[int(u)] for u in edge_to[idx]])
            agg = _aggregate(msg, local_ids, len(opts), layer.aggregation)
        group_out = F.linear(agg, layer.h2.weight, layer.h2.bias).relu() + x_group
        for k, u in enumerate(opts):
            node_emb[int(u)] = group_out[k]
    return stack([node_emb[u] for u in range(n)], axis=0)


def _message_of(layer, gpnet):
    """The layer's message expression, with nothing hoisted out of the loop."""
    if isinstance(layer, _NoEdgeDirectionalPass):

        def message(sender_emb, idx):
            return F.linear(sender_emb, layer.h1.weight, layer.h1.bias).relu()

        return message
    w_emb = layer.h1.weight[:EMBED_DIM]
    w_edge = layer.h1.weight[EMBED_DIM:]

    def message(sender_emb, idx):
        return (
            F.linear(sender_emb, w_emb)
            + F.linear(Tensor(gpnet.edge_features[idx]), w_edge, layer.h1.bias)
        ).relu()

    return message


def two_way_reference(forward_pass, backward_pass, gpnet, x):
    """Drop-in for ``repro.core.gnn._two_way``: both sweeps as per-task loops."""
    num_tasks = len(gpnet.options)
    src_tasks = gpnet.task_of[gpnet.edge_src]
    dst_tasks = gpnet.task_of[gpnet.edge_dst]
    levels = levels_from_every_gpnet_edge(src_tasks, dst_tasks, num_tasks)
    order = [int(t) for t in np.lexsort((np.arange(num_tasks), levels))]
    # Edges into each receiving task, ascending gpNet-edge order.
    groups_fwd = [np.flatnonzero(dst_tasks == t) for t in range(num_tasks)]
    groups_bwd = [np.flatnonzero(src_tasks == t) for t in range(num_tasks)]
    e_fwd = _sweep_reference(
        forward_pass, gpnet, x, order, groups_fwd, False, _message_of(forward_pass, gpnet)
    )
    e_bwd = _sweep_reference(
        backward_pass, gpnet, x, order[::-1], groups_bwd, True, _message_of(backward_pass, gpnet)
    )
    return concat([e_fwd, e_bwd], axis=1)


@contextmanager
def reference_path():
    """Route GiPH / GiPH-NE embedding forwards through the per-task loop."""
    shipped = gnn._two_way
    gnn._two_way = two_way_reference
    try:
        yield
    finally:
        gnn._two_way = shipped


def sweep_composed(layer, gpnet, x, plan, reverse, w_msg, term):
    """One direction of Eq. 1 on ``plan``'s levels, every level as ordinary
    tape ops; ``term`` is per edge (GiPH) or a broadcast bias (GiPH-NE)."""
    if reverse:
        edge_from, edge_to = gpnet.edge_dst, gpnet.edge_src
    else:
        edge_from, edge_to = gpnet.edge_src, gpnet.edge_dst
    emb = Tensor(np.zeros((gpnet.num_nodes, EMBED_DIM)))
    for level in plan.levels:
        if len(level.edge_idx) == 0:
            agg = Tensor(np.zeros((len(level.nodes), layer.h1.out_features)))
        else:
            idx = level.edge_idx
            s = emb[edge_from[idx]]
            if term.ndim == 2:
                msg = (F.linear(s, w_msg) + term[idx]).relu()
            else:
                msg = F.linear(s, w_msg, term).relu()
            segments = plan.node_local[edge_to[idx]]
            agg = _aggregate(msg, segments, len(level.nodes), layer.aggregation)
        group_out = F.linear(agg, layer.h2.weight, layer.h2.bias).relu() + x[level.nodes]
        emb = scatter_rows(emb, level.nodes, group_out, assume_unique=True)
    return emb


def message(layer, gpnet):
    """The two pieces of ``layer``'s messages ``relu(emb[v] @ w_msg + t)``
    for a whole pass: GiPH's ``W_emb = h1.weight[:EMBED_DIM]`` and the
    edge half of every message, one affine map over all edges on the
    slice ``W_edge`` (each a tape node); GiPH-NE's all of ``h1.weight``
    and ``h1.bias``, broadcast over edges."""
    if isinstance(layer, _NoEdgeDirectionalPass):
        return layer.h1.weight, layer.h1.bias
    w_edge, features = layer.h1.weight[EMBED_DIM:], Tensor(gpnet.edge_features)
    return layer.h1.weight[:EMBED_DIM], F.linear(features, w_edge, layer.h1.bias)


def two_way_composed(forward_pass, backward_pass, gpnet, x):
    """Drop-in for ``repro.core.gnn._two_way``: each direction's levels as
    ordinary tape ops, the summaries joined by ``concat``."""
    forward, backward = directions(structure_of(gpnet), gpnet)
    e_fwd = sweep_composed(forward_pass, gpnet, x, forward, False, *message(forward_pass, gpnet))
    e_bwd = sweep_composed(backward_pass, gpnet, x, backward, True, *message(backward_pass, gpnet))
    return concat([e_fwd, e_bwd], axis=1)


@contextmanager
def composed_path():
    """Route GiPH / GiPH-NE embedding forwards through the composed tape."""
    shipped = gnn._two_way
    gnn._two_way = two_way_composed
    try:
        yield
    finally:
        gnn._two_way = shipped
