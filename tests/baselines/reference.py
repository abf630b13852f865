"""Test oracles: what the learned baselines' per-problem layouts and the
k-step message pass replaced.

``TaskViewBuilder.build``, ``PlacetoLayout.features`` and
``repro.nn.functional.propagate`` are array / one-tape-node rewrites of
three pieces of per-step Python.  This module keeps the pieces they
replaced, verbatim, so the tests can demand the same floats:

* :func:`task_view_loop` — the task view built with two Python row
  loops, a fresh ``GpNet`` (no shared structure) per call
  (:func:`loop_views` swaps it in for ``TaskViewBuilder``);
* :func:`placeto_features_loop` — Placeto's five features, one row at a
  time, through ``CostModel.mean_compute_time`` and :func:`data_out`;
* :func:`propagate_composed` — one direction of the k-step message pass
  of Placeto and GiPH-k (``KStepMessagePassing``) as ordinary ``Tensor``
  ops, and :func:`two_way_composed`, both directions as two such passes
  and a ``concat``: the shipped two-way node's oracle.  It pins that
  node's forward *and* every gradient bit for bit: the hand-written
  backward must run the float operations this tape runs, in the same
  order (``e0``'s terms included: all of the forward pass's, then all of
  the backward's);
* :func:`placeto_summaries_composed` — Placeto's parents / children /
  pooled views and their concatenation as ordinary ``Tensor`` ops, the
  oracle of ``repro.baselines.placeto._summaries``.

:func:`composed_path` swaps both composed tapes in.
"""

from contextlib import contextmanager

import numpy as np

from repro.baselines import placeto, task_eft
from repro.core.gpnet import GpNet
from repro.nn import Tensor, concat
from repro.nn import functional as F
from repro.sim.executor import simulate

__all__ = [
    "task_view_loop",
    "loop_views",
    "data_out",
    "placeto_features_loop",
    "propagate_composed",
    "two_way_composed",
    "placeto_summaries_composed",
    "composed_path",
]


def task_view_loop(problem, placement, timeline=None):
    """Drop-in for ``TaskViewBuilder.build``: one Python iteration per row."""
    graph, cm = problem.graph, problem.cost_model
    placement = problem.validate_placement(placement)
    if timeline is None:
        timeline = simulate(graph, problem.network, placement, cm)
    speeds = problem.network.speeds

    node_features = np.array(
        [
            [
                graph.compute[i],
                speeds[placement[i]],
                cm.compute_time(i, placement[i]),
                timeline.start[i],
            ]
            for i in range(graph.num_tasks)
        ]
    )
    scale = np.abs(node_features).mean(axis=0)
    node_features = node_features / np.where(scale > 1e-12, scale, 1.0)

    inv_bw = problem.network.inv_bandwidth
    src, dst, efeat = [], [], []
    for (u, v), data in graph.edges.items():
        du, dv = placement[u], placement[v]
        src.append(u)
        dst.append(v)
        efeat.append(
            [data, inv_bw[du, dv], problem.network.delay[du, dv], cm.comm_time((u, v), du, dv)]
        )
    edge_features = np.array(efeat) if efeat else np.zeros((0, 4))
    if len(edge_features):
        escale = np.abs(edge_features).mean(axis=0)
        edge_features = edge_features / np.where(escale > 1e-12, escale, 1.0)

    return GpNet(
        task_of=np.arange(graph.num_tasks, dtype=np.int64),
        device_of=np.array(placement, dtype=np.int64),
        is_pivot=np.ones(graph.num_tasks, dtype=bool),
        options=tuple(np.array([i]) for i in range(graph.num_tasks)),
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        node_features=node_features,
        edge_features=edge_features,
        placement=placement,
    )


class _LoopViews:
    """``TaskViewBuilder``'s interface over :func:`task_view_loop`."""

    def __init__(self, problem):
        self.problem = problem

    def build(self, placement, timeline=None):
        return task_view_loop(self.problem, placement, timeline)


@contextmanager
def loop_views():
    """Route every task view of ``repro.baselines.task_eft`` through the loop."""
    shipped = task_eft.TaskViewBuilder
    task_eft.TaskViewBuilder = _LoopViews
    try:
        yield
    finally:
        task_eft.TaskViewBuilder = shipped


def data_out(graph, i):
    """Total bytes task ``i`` sends, added in ``graph.edges`` (dict) order."""
    return sum(b for (u, _), b in graph.edges.items() if u == i)


def placeto_features_loop(problem, placement, current_node, placed):
    """Drop-in for ``PlacetoLayout(problem).features``: one Python iteration per row."""
    graph = problem.graph
    cm = problem.cost_model
    m = problem.network.num_devices
    rows = []
    for i in range(graph.num_tasks):
        rows.append(
            [
                cm.mean_compute_time(i),
                data_out(graph, i),
                placement[i] / max(m - 1, 1),
                1.0 if i == current_node else 0.0,
                1.0 if placed[i] else 0.0,
            ]
        )
    feats = np.array(rows)
    scale = np.abs(feats).mean(axis=0)
    return feats / np.where(scale > 1e-12, scale, 1.0)


def propagate_composed(
    e0, senders, receivers, counts, msg_layer, agg_layer, steps, edge_features=None, how="mean"
):
    """Drop-in for ``repro.nn.functional.propagate``: every step as ordinary
    tape ops, aggregating by ``how`` (``counts`` unused — the aggregation
    derives its own, so a caller's wrong divisor shows)."""
    n = e0.shape[0]
    aggregate = F.segment_mean if how == "mean" else F.segment_sum
    efeat = None if edge_features is None else Tensor(edge_features)
    e = e0
    # The layers as ``x @ W + b``, not ``Linear``'s one node: every op is ordinary.
    for _ in range(steps):
        if len(senders) == 0:
            agg = Tensor(np.zeros((n, agg_layer.in_features)))
        else:
            gathered = e[senders] if efeat is None else concat([e[senders], efeat], axis=1)
            agg = aggregate((gathered @ msg_layer.weight + msg_layer.bias).relu(), receivers, n)
        e = (agg @ agg_layer.weight + agg_layer.bias).relu() + e0
    return e


def two_way_composed(
    e0, senders, receivers, counts, layers, steps, edge_features=None, how="mean"
):
    """Drop-in for ``repro.nn.functional.propagate``: the forward pass, the
    backward pass over the reversed edges, and their ``concat``."""
    m = len(senders) // 2
    (fwd_msg, fwd_agg), (bwd_msg, bwd_agg) = layers
    src, dst = senders[:m], receivers[:m]
    e_fwd = propagate_composed(e0, src, dst, None, fwd_msg, fwd_agg, steps, edge_features, how)
    e_bwd = propagate_composed(e0, dst, src, None, bwd_msg, bwd_agg, steps, edge_features, how)
    return concat([e_fwd, e_bwd], axis=1)


def placeto_summaries_composed(node, layout):
    """Drop-in for ``repro.baselines.placeto._summaries``: the tape ops
    Placeto's embedding ran before they became one node."""
    n, src, dst = node.shape[0], layout.src, layout.dst
    if len(src) == 0:
        parents = Tensor(np.zeros((n, node.shape[1])))
        children = Tensor(np.zeros((n, node.shape[1])))
    else:
        parents = F.segment_mean(node[src], dst, n)
        children = F.segment_mean(node[dst], src, n)
    pooled = node.mean(axis=0, keepdims=True) + Tensor(np.zeros(node.shape))
    return concat([node, parents, children, pooled], axis=1)


@contextmanager
def composed_path():
    """Route every k-step pass — Placeto's, GiPH-k's — through the composed
    tape (both aggregate by mean), and Placeto's summaries through theirs."""
    shipped = F.propagate, placeto._summaries
    F.propagate = two_way_composed
    placeto._summaries = placeto_summaries_composed
    try:
        yield
    finally:
        F.propagate, placeto._summaries = shipped
