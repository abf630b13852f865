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

Architecture dimensions are the constants of Tables 4-5: raw node/edge
features are 4-dimensional, per-direction embeddings :data:`EMBED_DIM`
= 5 (10 concatenated), pre-embedding is a two-layer FNN with hidden size
equal to the input.  Only GiPH may aggregate by sum; all else is mean.

Hot path
--------
The two recurrent sweeps run **vectorized and in lock-step**: both
directions have the DAG's depth in levels, so one batched gather →
message → segment-aggregate → write round advances topological level
``l`` of both at once (frontier batching), driven by the
placement-independent lock-step plan
(:class:`~repro.core.features.GpNetStructure`) and the sender/receiver
rows that each gpNet carries (the builder keeps them across relocations).
The whole two-way pass is **one tape node** (:func:`_two_way`) on each
direction's ``h1``/``h2`` parameters, serving GiPH and GiPH-NE, which
differ only in what a message reads: GiPH's edge half ``x^e @ W_edge +
b`` is computed per level, per direction, from that level's columns of
the edge features (gathered once per forward in plan order, ``(4, 2E)``).
Its forward runs in plain NumPy,
**feature-major**: the embedding buffer is ``(embed_dim, 2N)``, messages
``(msg_dim, edges)``, so every kernel — ``take``, the einsum behind
:func:`repro.nn.functional.linear`, relu, the ``bincount`` segment sum —
loops along hundreds of edges of both directions, not across 5-9
features, with each element's float operations and their order
unchanged.  What leaves is a C-contiguous row-major ``(N, 2 * embed_dim)``
array, and the hand-written backward — the levels unwound last first
with the operations, and the accumulation order, of the per-level tape
it replaced — hands its BLAS products the fresh row-major operands of a
lone direction: BLAS floats depend on operand layout.  Both things the
sweep replaced are oracles in ``tests/core/gnn_reference.py``, pinned
bit-identical by ``tests/core/test_gnn_vectorized.py``: the per-task loop
pins the forward, the composed per-level tape (``two_way_composed``)
every gradient.  The einsum kernel makes a row's result a function of
that row alone, which is what makes exact float equality possible at all
(``np.matmul`` picks different BLAS kernels for different row counts).
GiPH-k's k steps run as Placeto's, one tape node advancing both directions
each step (:func:`repro.nn.functional.propagate`); GraphSAGE-NE, which
aggregates before its ``Linear`` and has no residual, stays composed.
The registry counters ``gnn.forwards``/``gnn.backwards``/``gnn.seconds``
count forward and backward passes and cumulative forward seconds.
"""

from __future__ import annotations

import time

import numpy as np

from ..nn import MLP, Linear, Module, Tensor, concat
from ..nn import functional as F
from ..telemetry import metrics, span
from .features import EDGE_FEATURE_DIM, NODE_FEATURE_DIM, endpoint_rows_of, structure_of
from .gpnet import GpNet

__all__ = [
    "EMBED_DIM",
    "GpNetEmbedding",
    "TwoWayMessagePassing",
    "KStepMessagePassing",
    "TwoWayNoEdge",
    "GraphSageNoEdge",
    "RawFeatureEmbedding",
    "augment_with_out_edge_means",
    "make_embedding",
]


# Process-global registry counters: embeddings are called deep inside
# search policies that know nothing about experiment plumbing, so
# callers read these before and after the work they attribute (see
# repro.experiments.runner._evaluate_case).  ``forwards``/``backwards``
# count whole-embedding passes and are deterministic for a workload;
# ``seconds`` is forward wall-clock.  Fork workers ship them home with
# every task delta.
_FORWARDS = metrics().counter("gnn.forwards")
_BACKWARDS = metrics().counter("gnn.backwards")
_SECONDS = metrics().counter("gnn.seconds")

#: Per-direction embedding width (Table 4); embeddings are twice this.
EMBED_DIM = 5
_MSG_DIM = EMBED_DIM + EDGE_FEATURE_DIM  # sender embedding ∥ edge features
_AUGMENTED_DIM = NODE_FEATURE_DIM + EDGE_FEATURE_DIM  # see augment_with_out_edge_means


class GpNetEmbedding(Module):
    """Interface: embed a gpNet into per-node vectors (num_nodes, out_dim).

    Subclasses implement :meth:`_embed`; the shared :meth:`forward`
    wraps it with the ``gnn.*`` registry counters (forward count + wall
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


def _two_way(forward_pass, backward_pass, gpnet: GpNet, x: Tensor) -> Tensor:
    """Both directions of Eq. 1 over pre-embedded ``x``, concatenated, as
    one tape node whose parents are ``x`` and each pass's ``h1``/``h2``
    weight and bias.  A message is ``relu(h1([e_v ∥ x^e]))`` (GiPH: ``h1``
    split into ``W_emb = h1.weight[:EMBED_DIM]`` on the sender and
    ``x^e @ W_edge + b`` on the edge, computed per level from the level's
    feature columns) or ``relu(h1(e_v))`` (GiPH-NE).  Steps that read no
    weight run once per level over both directions' rows; every product
    that reads a weight runs per direction, on a lone direction's operands.
    The backward replays, last level first, the float operations of the
    composed per-level tape in its order (oracle: ``tests/core/
    gnn_reference.py::two_way_composed``, which slices ``h1.weight`` and
    computes the edge half for the whole pass), so gradients stay
    bit-identical: each direction owns its parameters, so interleaving the
    two reorders no parameter's sum, and ``x``'s two contributions commute."""
    plan, n, m = structure_of(gpnet), gpnet.num_nodes, gpnet.num_edges
    passes = (forward_pass, backward_pass)
    h1 = [(p.h1.weight, p.h1.bias) for p in passes]
    h2 = [(p.h2.weight, p.h2.bias) for p in passes]
    parents = (x, *h1[0], *h2[0], *h1[1], *h2[1])
    per_edge = forward_pass.h1.in_features > EMBED_DIM  # h1 reads [e_v ∥ x^e]
    msg_dim = forward_pass.h1.out_features
    w_msg = [w.data[:EMBED_DIM] for w, _ in h1]  # all of it for GiPH-NE
    senders, receivers = endpoint_rows_of(gpnet)
    counts = F._segment_counts(receivers, 2 * n) if forward_pass.aggregation == "mean" else None
    xT = np.ascontiguousarray(x.data.T)
    x_rows = np.concatenate((xT, xT), axis=1).take(plan.nodes, axis=1)
    embT = np.zeros((EMBED_DIM, 2 * n))
    if per_edge:  # each plan edge's feature column, backward ids shifted back
        x_plan = gpnet.edge_features_fm.take(plan.edges - m * (plan.edges >= m), axis=1)
    saved = []  # per level, what the backward reads
    nb, eb = plan.row_bounds.tolist(), plan.edge_bounds.tolist()
    levels = [(n0, n1, e0, e1, nm - n0, em - e0) for n0, nm, n1, e0, em, e1 in zip(
        nb[:-1:2], nb[1::2], nb[2::2], eb[:-1:2], eb[1::2], eb[2::2])]
    for n0, n1, e0, e1, nf, ef in levels:
        if e0 == e1:
            agg, edges = np.zeros((msg_dim, n1 - n0)), None
        else:
            s = embT.take(senders[e0:e1], axis=1)
            pre = np.empty((msg_dim, e1 - e0))
            for (w, b), w_s, a, z in zip(h1, w_msg, (0, ef), (ef, e1 - e0)):
                term = b.data[:, None]
                if per_edge:  # GiPH: the edge half, from the level's columns, plus the bias
                    t = F._linear_kernel_fm(x_plan[:, e0 + a : e0 + z], w.data[EMBED_DIM:])
                    term = np.add(t, term, out=t)
                np.add(F._linear_kernel_fm(s[:, a:z], w_s), term, out=pre[:, a:z])
            segments = receivers[e0:e1] - n0
            np.maximum(pre, 0.0, out=pre)  # the backward's mask: relu(pre) > 0 where pre > 0
            agg = F._segment_sum_kernel(pre, segments, n1 - n0, axis=1)
            if counts is not None:
                agg /= counts[n0:n1]
            edges = (pre, segments)
        h = np.empty((EMBED_DIM, n1 - n0))
        for (w, b), cols in zip(h2, (slice(0, nf), slice(nf, None))):
            np.add(F._linear_kernel_fm(agg[:, cols], w.data), b.data[:, None], out=h[:, cols])
        np.add(np.maximum(h, 0.0), x_rows[:, n0:n1], out=embT[:, n0:n1])
        saved.append((agg, h, edges))
    by_node = embT.T.take(plan.node_row, axis=0)
    out = np.concatenate((by_node[:n], by_node[n:]), axis=1)  # row-major: the policy's BLAS reads it

    def backward(grad: np.ndarray) -> None:
        # G is the gradient of the embedding rows.  A level's senders sit
        # strictly below it, so its rows are final when it is unwound and
        # nothing writes them after: x's gradient is the final G, read once.
        # The BLAS products get the row-major operands a lone direction
        # hands them: their floats depend on operand layout.
        G = np.concatenate((grad[:, :EMBED_DIM], grad[:, EMBED_DIM:])).take(plan.nodes, axis=0)
        emb = embT.T.copy()
        # GiPH's edge halves, by doubled edge id, for the whole-pass products
        # below.  Edgeless, the per-level tape never reads one: no gradient.
        live = per_edge and m and any(t.requires_grad for pair in h1 for t in pair)
        g_term = np.zeros((2 * m, msg_dim)) if live else None
        g_emb = [None, None]  # GiPH: the composed tape's ``W_emb`` slice gradient
        for (n0, n1, e0, e1, nf, ef), (agg, h, edges) in zip(levels[::-1], saved[::-1]):
            rows, cols = (slice(0, nf), slice(nf, None)), (slice(0, ef), slice(ef, None))
            g_h = G[n0:n1] * np.ascontiguousarray((h > 0).T)
            for (w, b), r in zip(h2, rows):
                # Straight into ``.grad``, one level at a time: a per-pass
                # subtotal would re-associate the sum over an episode's forwards.
                if w.requires_grad:
                    w._accumulate(np.ascontiguousarray(agg[:, r].T).T @ g_h[r])
                if b.requires_grad:
                    b._accumulate(g_h[r].sum(axis=0))
            if edges is None:
                continue
            pre, segments = edges
            g_agg = np.empty((n1 - n0, msg_dim))
            for (w, _), r in zip(h2, rows):
                np.matmul(g_h[r], w.data.T, out=g_agg[r])
            if counts is not None:
                g_agg = g_agg / counts[n0:n1, None]
            g_pre = g_agg.take(segments, axis=0) * np.ascontiguousarray((pre > 0).T)
            if g_term is not None:
                g_term[plan.edges[e0:e1]] = g_pre  # each edge sits in one level per direction
            senders_l = senders[e0:e1]
            s = emb.take(senders_l, axis=0)  # senders' rows were final when gathered
            back = np.empty((e1 - e0, EMBED_DIM))
            for k, ((w, b), w_s, c) in enumerate(zip(h1, w_msg, cols)):
                if not per_edge and b.requires_grad:
                    b._accumulate(g_pre[c].sum(axis=0))
                if w.requires_grad:
                    g_w = s[c].T @ g_pre[c]
                    if not per_edge:
                        w._accumulate(g_w)
                    elif g_emb[k] is None:
                        g_emb[k] = g_w
                    else:
                        g_emb[k] += g_w
                np.matmul(g_pre[c], w_s.T, out=back[c])
            # Senders repeat and G is non-zero there, so a bincount
            # subtotal would change the association: a flat ``np.add.at``.
            F._scatter_add_rows(G, senders_l, back)
        if x.requires_grad:
            G = G.take(plan.node_row, axis=0)
            if x.grad is None:
                x.grad = np.zeros(x.shape)  # the per-level tape summed into zeros
            x.grad += G[:n]
            x.grad += G[n:]
        for k, (w, b) in enumerate(h1 if g_term is not None else ()):
            # The composed tape's whole-pass affine map over all edges, and
            # ``h1.weight``'s two slice gradients added into zeros.  That tape
            # also summed the edge half's gradient into zeros, which turns a
            # ``-0.0`` into ``+0.0``; both reductions below start from +0.0,
            # so no zero's sign can reach a parameter either way.
            g_t = g_term[k * m : (k + 1) * m]
            if b.requires_grad:
                b._accumulate(g_t.sum(axis=0))
            if w.requires_grad:
                if w.grad is None:
                    w.grad = np.zeros(w.shape)
                w.grad[:EMBED_DIM] += g_emb[k]
                w.grad[EMBED_DIM:] += gpnet.edge_features.T @ g_t

    return Tensor._make(out, parents, backward, "two-way")


class _DirectionalPass(Module):
    """One direction's h1/h2: of Eq. 1, or shared by the k steps of Eq. 4.

    :func:`_two_way` runs it from its ``h1``/``h2`` parameters.  h1/h2
    go through the batch-invariant kernel of
    :func:`repro.nn.functional.linear`, which produces the same floats
    for any level/task partition of the same rows — what lets the
    per-task loop oracle in ``tests/`` demand exact equality.

    h1 is split over its concatenated input:
    ``h1([e_v ∥ x^e]) = e_v @ W_emb + (x^e @ W_edge + b)`` with
    ``W_emb = h1.weight[:EMBED_DIM]`` and ``W_edge`` the rest.  The edge
    half depends only on static edge features; the sweep computes it per
    level from the columns of that level's edges (batch invariance again
    makes it equal to one affine map over all edges, sliced after).
    """

    def __init__(self, rng: np.random.Generator, aggregation: str) -> None:
        self.h1 = Linear(_MSG_DIM, _MSG_DIM, rng)
        self.h2 = Linear(_MSG_DIM, EMBED_DIM, rng)
        if aggregation not in ("mean", "sum"):
            raise ValueError(f"unknown aggregation {aggregation!r}; expected one of ('mean', 'sum')")
        self.aggregation = aggregation


class TwoWayMessagePassing(GpNetEmbedding):
    """The GiPH GNN: Eq. 1 in both directions, summaries concatenated.

    The recurrent sweep runs as many message-passing steps as the graph
    is deep ("message passing: graph depth" in Table 5) — one vectorized
    frontier batch per level.  ``aggregation`` is ``"mean"`` (§5) or
    ``"sum"`` (Eq. 1 as written); the design-choice ablation trains both.
    """

    def __init__(self, rng: np.random.Generator, aggregation: str = "mean") -> None:
        self.out_dim = 2 * EMBED_DIM
        self.pre = MLP([NODE_FEATURE_DIM, NODE_FEATURE_DIM, EMBED_DIM], rng)
        self.forward_pass = _DirectionalPass(rng, aggregation)
        self.backward_pass = _DirectionalPass(rng, aggregation)

    def _embed(self, gpnet: GpNet) -> Tensor:
        x = self.pre(Tensor(gpnet.node_features))
        return _two_way(self.forward_pass, self.backward_pass, gpnet, x)


class KStepMessagePassing(GpNetEmbedding):
    """GiPH-k (Eq. 4): bounded k-step two-way message passing.

    Caps the sequential depth of the GNN — the paper's Table 7 / Fig. 17
    remedy for large graphs (GiPH-3, GiPH-5).  Both directions' k steps
    are one :func:`repro.nn.functional.propagate` node; its oracle is the
    composed tape in ``tests/`` (``two_way_composed``).
    """

    def __init__(self, rng: np.random.Generator, k: int) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.out_dim = 2 * EMBED_DIM
        self.pre = MLP([NODE_FEATURE_DIM, NODE_FEATURE_DIM, EMBED_DIM], rng)  # h3 in Eq. 4
        self.forward_pass = _DirectionalPass(rng, "mean")  # h1/h2 shared by the k steps
        self.backward_pass = _DirectionalPass(rng, "mean")

    def _embed(self, gpnet: GpNet) -> Tensor:
        e0 = self.pre(Tensor(gpnet.node_features))
        senders, receivers = F.two_way_ids(gpnet.edge_src, gpnet.edge_dst, gpnet.num_nodes)
        counts = F._segment_counts(receivers, 2 * gpnet.num_nodes)[:, None]
        layers = [(p.h1, p.h2) for p in (self.forward_pass, self.backward_pass)]
        return F.propagate(e0, senders, receivers, counts, layers, self.k, gpnet.edge_features)


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

    Same sweep as :class:`_DirectionalPass`; messages are
    ``relu(h1(e_v))`` of the sender embeddings alone: all of ``h1.weight``
    and, broadcast over edges, ``h1.bias``.
    """

    aggregation = "mean"

    def __init__(self, rng: np.random.Generator) -> None:
        self.h1 = Linear(EMBED_DIM, EMBED_DIM, rng)
        self.h2 = Linear(EMBED_DIM, EMBED_DIM, rng)


class TwoWayNoEdge(GpNetEmbedding):
    """GiPH-NE: two-way message passing on augmented node features only.

    Node features are the 8-dim augmentation (raw + mean out-edge); a
    linear projection (the "no node transform layer" of Table 5) brings
    them to the embedding dimension.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self.out_dim = 2 * EMBED_DIM
        self.proj = Linear(_AUGMENTED_DIM, EMBED_DIM, rng)
        self.forward_pass = _NoEdgeDirectionalPass(rng)
        self.backward_pass = _NoEdgeDirectionalPass(rng)

    def _embed(self, gpnet: GpNet) -> Tensor:
        x = self.proj(Tensor(augment_with_out_edge_means(gpnet)))
        return _two_way(self.forward_pass, self.backward_pass, gpnet, x)


class GraphSageNoEdge(GpNetEmbedding):
    """GraphSAGE-NE: 3 uni-directional GraphSAGE layers (Hamilton 2017).

    h^{l+1}_u = ReLU(W_l [h^l_u ∥ mean_{v∈parents(u)} h^l_v]); forward
    direction only — the divergence observed in Fig. 14 traces back to
    this missing backward view.  Hidden width 16, output 10 (Table 5).
    Each layer already aggregates over all edges in one segment op, so it
    has no per-task loop oracle.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        hidden = 16
        self.out_dim = 10
        self.pre = Linear(_AUGMENTED_DIM, hidden, rng)
        self.sage_layers = [Linear(2 * hidden, hidden, rng) for _ in range(3)]
        self.head = Linear(hidden, self.out_dim, rng)

    def _embed(self, gpnet: GpNet) -> Tensor:
        h = self.pre(Tensor(augment_with_out_edge_means(gpnet))).relu()
        n = gpnet.num_nodes
        for layer in self.sage_layers:
            if gpnet.num_edges == 0:
                neigh = Tensor(np.zeros((n, h.shape[1])))
            else:
                neigh = F.segment_mean(h[gpnet.edge_src], gpnet.edge_dst, n)
            h = layer(concat([h, neigh], axis=1)).relu()
        return self.head(h)


class RawFeatureEmbedding(GpNetEmbedding):
    """GiPH-NE-Pol: no GNN — augmented raw features straight to the policy."""

    out_dim = _AUGMENTED_DIM

    def _embed(self, gpnet: GpNet) -> Tensor:
        return Tensor(augment_with_out_edge_means(gpnet))


def make_embedding(kind: str, rng: np.random.Generator) -> GpNetEmbedding:
    """Factory over the paper's GNN variants, each at its Table 4-5 widths
    with mean aggregation.

    ``kind``: "giph", "giph-<k>" (GiPH-k, e.g. "giph-3"), "giph-ne",
    "graphsage-ne", or "giph-ne-pol".  A sum-aggregating GiPH is
    ``TwoWayMessagePassing(rng, aggregation="sum")``.
    """
    kind = kind.lower()
    if kind == "giph":
        return TwoWayMessagePassing(rng)
    if kind.startswith("giph-") and kind[5:].isdigit():
        return KStepMessagePassing(rng, k=int(kind[5:]))
    if kind == "giph-ne":
        return TwoWayNoEdge(rng)
    if kind == "graphsage-ne":
        return GraphSageNoEdge(rng)
    if kind == "giph-ne-pol":
        return RawFeatureEmbedding()
    raise ValueError(f"unknown embedding kind {kind!r}")
