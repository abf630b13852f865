"""Test oracles: the two implementations the shipped GNN sweep replaced.

``repro.core.gnn._sweep`` runs one direction of Eq. 1 as a single tape
node with a hand-written backward.  This module keeps what it replaced,
so the tests can demand the same floats:

* the **per-task loop** (:func:`two_way_reference`) — one Python
  iteration per task, one ``Tensor`` per node, the edge half of every
  message computed on the slice that needs it — pins the *forward*.
  Nothing in it reads the shipped
  :class:`~repro.core.features.GpNetStructure`: the task order comes
  from the set-comprehension level oracle in ``test_gpnet.py`` and the
  per-task edge groups are recomputed from the net's endpoints.
* the **composed per-level sweep** (:func:`sweep_composed`) — the same
  levels as the shipped sweep, each written as ordinary tape ops
  (gather → linear → relu → segment aggregate → linear → relu → row
  scatter) — pins the *gradients*, bit for bit: the shipped backward
  must run the float operations this tape runs, in the same order.
"""

from contextlib import contextmanager

import numpy as np
from test_gpnet import levels_from_every_gpnet_edge

from repro.core import gnn
from repro.core.gnn import _NoEdgeDirectionalPass
from repro.nn import Tensor, as_tensor, concat, stack
from repro.nn import functional as F

__all__ = ["scatter_rows", "two_way_reference", "reference_path", "sweep_composed", "composed_path"]


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
    """One direction of Eq. 1, one task at a time (same arguments as ``_sweep``)."""
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
    w_emb = layer.h1.weight[: layer.embed_dim]
    w_edge = layer.h1.weight[layer.embed_dim :]

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


def sweep_composed(layer, gpnet, x, plan, reverse, w_msg, term, per_edge):
    """Drop-in for ``repro.core.gnn._sweep``: every level as ordinary tape ops."""
    if reverse:
        edge_from, edge_to = gpnet.edge_dst, gpnet.edge_src
    else:
        edge_from, edge_to = gpnet.edge_src, gpnet.edge_dst
    emb = Tensor(np.zeros((gpnet.num_nodes, layer.embed_dim)))
    for level in plan.levels:
        if len(level.edge_idx) == 0:
            agg = Tensor(np.zeros((len(level.nodes), layer.h1.out_features)))
        else:
            idx = level.edge_idx
            s = emb[edge_from[idx]]
            if per_edge:
                msg = (F.linear(s, w_msg) + term[idx]).relu()
            else:
                msg = F.linear(s, w_msg, term).relu()
            segments = plan.node_local[edge_to[idx]]
            agg = _aggregate(msg, segments, len(level.nodes), layer.aggregation)
        group_out = F.linear(agg, layer.h2.weight, layer.h2.bias).relu() + x[level.nodes]
        emb = scatter_rows(emb, level.nodes, group_out, assume_unique=True)
    return emb


@contextmanager
def composed_path():
    """Route every directional sweep through the composed per-level tape."""
    shipped = gnn._sweep
    gnn._sweep = sweep_composed
    try:
        yield
    finally:
        gnn._sweep = shipped
