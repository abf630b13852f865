"""Graph neural networks over gpNets (paper §4.2.2, Appendix B.6).

The main GiPH network propagates messages along the partial order of the
gpNet in both directions with separate parameters (Eq. 1):

    e_u = h2( agg_{v ∈ ξ(u)} h1([e_v ∥ x^e_vu]) ) + x^n_u

where in the forward direction ξ(u) are u's parents (processed in
topological order, so each parent is final before its children read it)
and in the backward direction its children.  Per-direction summaries are
concatenated into the node embedding.

Alternatives evaluated in Appendix B.6 are provided:

* :class:`KStepMessagePassing` (GiPH-k, Eq. 4) — k synchronous two-way
  steps with shared parameters;
* :class:`TwoWayNoEdge` (GiPH-NE) — no edge features; mean out-edge
  features are appended to node features instead;
* :class:`GraphSageNoEdge` (GraphSAGE-NE) — 3-layer uni-directional
  GraphSAGE over the same augmented node features;
* :class:`RawFeatureEmbedding` (GiPH-NE-Pol) — no GNN at all.

Architecture dimensions follow Tables 4-5: raw node/edge features are
4-dimensional, per-direction embeddings 5-dimensional (10 concatenated),
pre-embedding is a two-layer FNN with hidden size equal to the input.

Hot path
--------
The recurrent sweeps run **vectorized**: one batched gather → message →
segment-aggregate → scatter round per topo *level* (frontier batching)
instead of a Python loop over tasks, driven by the placement-independent
:class:`~repro.core.features.GpNetStructure` cached on each gpNet.  One
sweep body (:func:`_sweep`) serves GiPH and GiPH-NE, which differ only
in the message expression they pass in.  The per-task loop it replaced
is a test oracle (``tests/core/gnn_reference.py``), pinned bit-identical
to the sweep by ``tests/core/test_gnn_vectorized.py``; both route their
affine maps through the batch-invariant
:func:`repro.nn.functional.linear` kernel, which is what makes exact
float equality possible at all (``np.matmul`` picks different BLAS
kernels for different row counts).  :func:`gnn_stats` gives
forward/backward counters and cumulative forward seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..nn import MLP, Linear, Module, Tensor, concat
from ..nn import functional as F
from ..telemetry import metrics, span
from .features import EDGE_FEATURE_DIM, NODE_FEATURE_DIM, DirectionPlan, structure_of
from .gpnet import GpNet

__all__ = [
    "GpNetEmbedding",
    "GnnStats",
    "gnn_stats",
    "TwoWayMessagePassing",
    "KStepMessagePassing",
    "TwoWayNoEdge",
    "GraphSageNoEdge",
    "RawFeatureEmbedding",
    "augment_with_out_edge_means",
    "make_embedding",
]


@dataclass
class GnnStats:
    """GNN hot-path counters.

    ``forwards``/``backwards`` count whole-embedding passes (one per
    ``GpNetEmbedding`` call / backprop through it) and are deterministic
    for a given workload; ``seconds`` is the cumulative wall-clock of
    the forward passes and therefore run-dependent (reports strip it
    from their canonical form — see
    :data:`repro.experiments.base.VOLATILE_DATA_KEYS`).
    """

    forwards: int = 0
    backwards: int = 0
    seconds: float = 0.0

    def merge(self, other: "GnnStats") -> "GnnStats":
        """Accumulate ``other`` into self (for sweep-level aggregation)."""
        self.forwards += other.forwards
        self.backwards += other.backwards
        self.seconds += other.seconds
        return self

    def delta(self, since: "GnnStats") -> "GnnStats":
        """Counters accumulated since the ``since`` snapshot."""
        return GnnStats(
            forwards=self.forwards - since.forwards,
            backwards=self.backwards - since.backwards,
            seconds=self.seconds - since.seconds,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "forwards": self.forwards,
            "backwards": self.backwards,
            "gnn_seconds": self.seconds,
        }


# Process-global accumulators: embeddings are called deep inside search
# policies that know nothing about experiment plumbing, so observability
# rides on process state and callers diff snapshots around the work they
# attribute (see repro.experiments.runner._evaluate_case).  The storage
# *is* the telemetry registry — `gnn_stats()` is a compatibility view
# over the `gnn.*` counters, which also ship home automatically from
# fork workers with every task delta.
_FORWARDS = metrics().counter("gnn.forwards")
_BACKWARDS = metrics().counter("gnn.backwards")
_SECONDS = metrics().counter("gnn.seconds")


def gnn_stats() -> GnnStats:
    """Snapshot of the process-global GNN counters."""
    return GnnStats(int(_FORWARDS.value), int(_BACKWARDS.value), _SECONDS.value)


class GpNetEmbedding(Module):
    """Interface: embed a gpNet into per-node vectors (num_nodes, out_dim).

    Subclasses implement :meth:`_embed`; the shared :meth:`forward`
    wraps it with the :func:`gnn_stats` counters (forward count + wall
    seconds, and a pass-through graph node that counts backprops without
    touching the gradient values).
    """

    out_dim: int

    def forward(self, gpnet: GpNet) -> Tensor:
        began = time.perf_counter()
        with span("gnn.forward"):
            out = self._embed(gpnet)
        _FORWARDS.inc()
        _SECONDS.inc(time.perf_counter() - began)
        if not out.requires_grad:
            return out

        def backward(grad: np.ndarray) -> None:
            _BACKWARDS.inc()
            out._accumulate(grad)

        return Tensor._make(out.data, (out,), backward, "gnn-stats")

    def _embed(self, gpnet: GpNet) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError


def _aggregate(values, segment_ids, num_segments, how: str):
    if how == "mean":
        return F.segment_mean(values, segment_ids, num_segments)
    if how == "sum":
        return F.segment_sum(values, segment_ids, num_segments)
    raise ValueError(f"unknown aggregation {how!r}")


def _sweep(layer, gpnet: GpNet, x: Tensor, plan: DirectionPlan, reverse: bool, message) -> Tensor:
    """One direction of the recurrent sweep, one batched round per topo level.

    ``layer`` supplies ``h1``/``h2``/``embed_dim``/``aggregation``;
    ``message(sender_emb, idx)`` maps the sender embeddings of gpNet
    edges ``idx`` to their messages — the only step on which GiPH and
    GiPH-NE differ.
    """
    if reverse:
        # Messages flow child -> parent: senders are dst endpoints,
        # aggregation lands on the src endpoints.
        edge_from, edge_to = gpnet.edge_dst, gpnet.edge_src
    else:
        edge_from, edge_to = gpnet.edge_src, gpnet.edge_dst
    emb = Tensor(np.zeros((gpnet.num_nodes, layer.embed_dim)))
    for level in plan.levels:
        if len(level.edge_idx) == 0:
            agg = Tensor(np.zeros((len(level.nodes), layer.h1.out_features)))
        else:
            idx = level.edge_idx
            msg = message(emb.gather(edge_from[idx]), idx)
            segments = plan.node_local[edge_to[idx]]
            agg = _aggregate(msg, segments, len(level.nodes), layer.aggregation)
        group_out = F.linear(agg, layer.h2.weight, layer.h2.bias).relu() + x[level.nodes]
        emb = F.scatter_rows(emb, level.nodes, group_out, assume_unique=True)
    return emb


class _DirectionalPass(Module):
    """One direction of Eq. 1: recurrent wavefront message passing.

    ``forward`` runs the sweep as one batched gather/aggregate round per
    topo level from the precomputed
    :class:`~repro.core.features.DirectionPlan`.  h1/h2 go through
    :func:`repro.nn.functional.linear`, whose batch-invariant kernel
    produces the same floats for any level/task partition of the same
    rows — what lets the per-task loop oracle in ``tests/`` demand
    exact equality.

    h1 is split over its concatenated input:
    ``h1([e_v ∥ x^e]) = e_v @ W_emb + (x^e @ W_edge + b)`` with
    ``W_emb = h1.weight[:embed_dim]`` and ``W_edge`` the rest.  The edge
    half depends only on static edge features, so it is computed once
    per pass for *all* edges and gathered per level (batch invariance
    again makes gather-after equal to compute-on-slice).
    """

    def __init__(self, embed_dim: int, edge_dim: int, rng: np.random.Generator, aggregation: str) -> None:
        msg_dim = embed_dim + edge_dim
        self.h1 = Linear(msg_dim, msg_dim, rng)
        self.h2 = Linear(msg_dim, embed_dim, rng)
        self.embed_dim = embed_dim
        self.aggregation = aggregation

    def forward(self, gpnet: GpNet, x: Tensor, plan: DirectionPlan, reverse: bool) -> Tensor:
        """``x``: pre-embedded node features (N, embed_dim)."""
        w_emb = self.h1.weight[: self.embed_dim]
        w_edge = self.h1.weight[self.embed_dim :]
        # The edge half of every message depends only on static edge
        # features: one batched affine map for the whole pass, gathered
        # per level.
        edge_msg = (
            F.linear(Tensor(gpnet.edge_features), w_edge, self.h1.bias)
            if gpnet.num_edges
            else None
        )

        def message(sender_emb: Tensor, idx: np.ndarray) -> Tensor:
            return (F.linear(sender_emb, w_emb) + edge_msg.gather(idx)).relu()

        return _sweep(self, gpnet, x, plan, reverse, message)


def _two_way(forward_pass, backward_pass, gpnet: GpNet, x: Tensor) -> Tensor:
    """Both directional sweeps over pre-embedded ``x``, summaries concatenated."""
    structure = structure_of(gpnet)
    e_fwd = forward_pass(gpnet, x, structure.forward_plan, reverse=False)
    e_bwd = backward_pass(gpnet, x, structure.backward_plan, reverse=True)
    return concat([e_fwd, e_bwd], axis=1)


class TwoWayMessagePassing(GpNetEmbedding):
    """The GiPH GNN: Eq. 1 in both directions, summaries concatenated.

    The recurrent sweep runs as many message-passing steps as the graph
    is deep ("message passing: graph depth" in Table 5) — one vectorized
    frontier batch per level.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        node_dim: int = NODE_FEATURE_DIM,
        edge_dim: int = EDGE_FEATURE_DIM,
        embed_dim: int = 5,
        aggregation: str = "mean",
    ) -> None:
        self.pre = MLP([node_dim, node_dim, embed_dim], rng)
        self.forward_pass = _DirectionalPass(embed_dim, edge_dim, rng, aggregation)
        self.backward_pass = _DirectionalPass(embed_dim, edge_dim, rng, aggregation)
        self.out_dim = 2 * embed_dim

    def _embed(self, gpnet: GpNet) -> Tensor:
        x = self.pre(Tensor(gpnet.node_features))
        return _two_way(self.forward_pass, self.backward_pass, gpnet, x)


class _SharedStepPass(Module):
    """One direction of Eq. 4: k synchronous steps, shared parameters."""

    def __init__(self, embed_dim: int, edge_dim: int, rng: np.random.Generator, aggregation: str) -> None:
        msg_dim = embed_dim + edge_dim
        self.h1 = Linear(msg_dim, msg_dim, rng)
        self.h2 = Linear(msg_dim, embed_dim, rng)
        self.aggregation = aggregation

    def forward(self, gpnet: GpNet, e0: Tensor, steps: int, reverse: bool) -> Tensor:
        n = gpnet.num_nodes
        senders = gpnet.edge_dst if reverse else gpnet.edge_src
        receivers = gpnet.edge_src if reverse else gpnet.edge_dst
        efeat = Tensor(gpnet.edge_features)
        e = e0
        for _ in range(steps):
            if gpnet.num_edges == 0:
                msg_agg = Tensor(np.zeros((n, self.h1.out_features)))
            else:
                msg = self.h1(concat([e[senders], efeat], axis=1)).relu()
                msg_agg = _aggregate(msg, receivers, n, self.aggregation)
            e = self.h2(msg_agg).relu() + e0
        return e


class KStepMessagePassing(GpNetEmbedding):
    """GiPH-k (Eq. 4): bounded k-step two-way message passing.

    Caps the sequential depth of the GNN — the paper's Table 7 / Fig. 17
    remedy for large graphs (GiPH-3, GiPH-5).  Already fully batched
    over edges per step, so it has no per-task loop oracle.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        k: int,
        node_dim: int = NODE_FEATURE_DIM,
        edge_dim: int = EDGE_FEATURE_DIM,
        embed_dim: int = 5,
        aggregation: str = "mean",
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.pre = MLP([node_dim, node_dim, embed_dim], rng)  # h3 in Eq. 4
        self.forward_pass = _SharedStepPass(embed_dim, edge_dim, rng, aggregation)
        self.backward_pass = _SharedStepPass(embed_dim, edge_dim, rng, aggregation)
        self.out_dim = 2 * embed_dim

    def _embed(self, gpnet: GpNet) -> Tensor:
        e0 = self.pre(Tensor(gpnet.node_features))
        e_fwd = self.forward_pass(gpnet, e0, self.k, reverse=False)
        e_bwd = self.backward_pass(gpnet, e0, self.k, reverse=True)
        return concat([e_fwd, e_bwd], axis=1)


def augment_with_out_edge_means(gpnet: GpNet) -> np.ndarray:
    """Node features with mean out-edge features appended (GiPH-NE input).

    "To compensate for the loss of edge information, the mean feature
    value of out edges of a node is appended to its node feature" (B.6).
    """
    n = gpnet.num_nodes
    edge_dim = gpnet.edge_features.shape[1] if gpnet.num_edges else EDGE_FEATURE_DIM
    sums = np.zeros((n, edge_dim))
    counts = np.zeros(n)
    if gpnet.num_edges:
        np.add.at(sums, gpnet.edge_src, gpnet.edge_features)
        np.add.at(counts, gpnet.edge_src, 1.0)
    means = sums / np.maximum(counts, 1.0)[:, None]
    return np.hstack([gpnet.node_features, means])


class _NoEdgeDirectionalPass(Module):
    """Wavefront pass without edge features (GiPH-NE).

    Same sweep as :class:`_DirectionalPass`; messages are the sender
    embeddings alone.
    """

    def __init__(self, embed_dim: int, rng: np.random.Generator, aggregation: str) -> None:
        self.h1 = Linear(embed_dim, embed_dim, rng)
        self.h2 = Linear(embed_dim, embed_dim, rng)
        self.embed_dim = embed_dim
        self.aggregation = aggregation

    def _message(self, sender_emb: Tensor, idx: np.ndarray) -> Tensor:
        return F.linear(sender_emb, self.h1.weight, self.h1.bias).relu()

    def forward(self, gpnet: GpNet, x: Tensor, plan: DirectionPlan, reverse: bool) -> Tensor:
        return _sweep(self, gpnet, x, plan, reverse, self._message)


class TwoWayNoEdge(GpNetEmbedding):
    """GiPH-NE: two-way message passing on augmented node features only.

    Node features are the 8-dim augmentation (raw + mean out-edge); a
    linear projection (the "no node transform layer" of Table 5) brings
    them to the embedding dimension.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        node_dim: int = NODE_FEATURE_DIM + EDGE_FEATURE_DIM,
        embed_dim: int = 5,
        aggregation: str = "mean",
    ) -> None:
        self.proj = Linear(node_dim, embed_dim, rng)
        self.forward_pass = _NoEdgeDirectionalPass(embed_dim, rng, aggregation)
        self.backward_pass = _NoEdgeDirectionalPass(embed_dim, rng, aggregation)
        self.out_dim = 2 * embed_dim

    def _embed(self, gpnet: GpNet) -> Tensor:
        x = self.proj(Tensor(augment_with_out_edge_means(gpnet)))
        return _two_way(self.forward_pass, self.backward_pass, gpnet, x)


class GraphSageNoEdge(GpNetEmbedding):
    """GraphSAGE-NE: 3 uni-directional GraphSAGE layers (Hamilton 2017).

    h^{l+1}_u = ReLU(W_l [h^l_u ∥ mean_{v∈parents(u)} h^l_v]); forward
    direction only — the divergence observed in Fig. 14 traces back to
    this missing backward view.  Each layer already aggregates over all
    edges in one segment op, so it has no per-task loop oracle.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        node_dim: int = NODE_FEATURE_DIM + EDGE_FEATURE_DIM,
        hidden_dim: int = 16,
        out_dim: int = 10,
        layers: int = 3,
        aggregation: str = "mean",
    ) -> None:
        if layers < 1:
            raise ValueError("layers must be >= 1")
        self.pre = Linear(node_dim, hidden_dim, rng)
        self.sage_layers = [Linear(2 * hidden_dim, hidden_dim, rng) for _ in range(layers)]
        self.head = Linear(hidden_dim, out_dim, rng)
        self.aggregation = aggregation
        self.out_dim = out_dim

    def _embed(self, gpnet: GpNet) -> Tensor:
        h = self.pre(Tensor(augment_with_out_edge_means(gpnet))).relu()
        n = gpnet.num_nodes
        for layer in self.sage_layers:
            if gpnet.num_edges == 0:
                neigh = Tensor(np.zeros((n, h.shape[1])))
            else:
                neigh = _aggregate(h[gpnet.edge_src], gpnet.edge_dst, n, self.aggregation)
            h = layer(concat([h, neigh], axis=1)).relu()
        return self.head(h)


class RawFeatureEmbedding(GpNetEmbedding):
    """GiPH-NE-Pol: no GNN — augmented raw features straight to the policy."""

    def __init__(self, node_dim: int = NODE_FEATURE_DIM + EDGE_FEATURE_DIM) -> None:
        self.out_dim = node_dim

    def _embed(self, gpnet: GpNet) -> Tensor:
        return Tensor(augment_with_out_edge_means(gpnet))


def make_embedding(kind: str, rng: np.random.Generator, **kwargs) -> GpNetEmbedding:
    """Factory over the paper's GNN variants.

    ``kind``: "giph", "giph-3", "giph-5", "giph-k" (pass k=), "giph-ne",
    "graphsage-ne", or "giph-ne-pol".
    """
    kind = kind.lower()
    if kind == "giph":
        return TwoWayMessagePassing(rng, **kwargs)
    if kind.startswith("giph-") and kind[5:].isdigit():
        return KStepMessagePassing(rng, k=int(kind[5:]), **kwargs)
    if kind == "giph-k":
        return KStepMessagePassing(rng, **kwargs)
    if kind == "giph-ne":
        return TwoWayNoEdge(rng, **kwargs)
    if kind == "graphsage-ne":
        return GraphSageNoEdge(rng, **kwargs)
    if kind == "giph-ne-pol":
        return RawFeatureEmbedding(**kwargs)
    raise ValueError(f"unknown embedding kind {kind!r}")
