"""Stateless neural-network operations.

Includes the graph-specific primitives (segment aggregation, k-step
message passing, masked softmax) that DGL provided in the paper's artifact.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor, _unbroadcast, as_tensor

__all__ = [
    "softmax",
    "masked_log_softmax",
    "linear",
    "segment_sum",
    "segment_mean",
    "two_way_ids",
    "propagate",
]


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def masked_log_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Log-softmax over the entries of ``scores`` where ``mask`` is True.

    Masked-out entries get log-probability -inf (represented as a very
    large negative constant so gradients stay finite).  This is the
    "optional mask layer" of the GiPH policy network (paper §4.2.3).
    One tape node along the last axis; the backward runs the float
    operations of the composed tape ``log_softmax(scores + neg)``, in its
    order (oracle: ``masked_log_softmax_composed`` in
    ``tests/nn/nn_reference.py``).
    """
    scores = as_tensor(scores)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ValueError(f"mask shape {mask.shape} != scores shape {scores.shape}")
    if not mask.any():
        raise ValueError("masked_log_softmax: no feasible action (mask all False)")
    z = scores.data + np.where(mask, 0.0, -1e9)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(np.clip(shifted, -700.0, 700.0))
    total = e.sum(axis=-1, keepdims=True)

    def backward(grad: np.ndarray) -> None:
        g_total = -_unbroadcast(grad, total.shape) / total
        scores._accumulate(grad + g_total * e)

    return Tensor._make(shifted - np.log(total), (scores,), backward, "masked_log_softmax")


def _linear_kernel(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """The batch-invariant ``x @ weight`` on row-major arrays, behind :func:`linear`."""
    return np.einsum("...k,kj->...j", x, weight)


def _linear_kernel_fm(x_fm: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``(x @ weight).T`` from feature-major ``x_fm = x.T``: the floats of
    :func:`_linear_kernel` with the inner loop along the rows, not across a
    handful of output features (~2x as fast on a C-contiguous ``x_fm``)."""
    return np.einsum("ke,kj->je", x_fm, weight)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight (+ bias)`` with a batch-invariant kernel.

    ``np.matmul`` dispatches to different BLAS kernels depending on the
    row count, so ``(A @ W)[i]`` and ``A[i] @ W`` can differ in the last
    ulps.  This kernel instead uses ``np.einsum``, whose reduction over
    the input dimension runs in a fixed sequential order per output
    element, making each output row a function of its own input row
    alone — invariant to how rows are batched or partitioned across
    calls (pinned by ``tests/nn/test_segment_ops.py``).  The vectorized
    GNN sweep in :mod:`repro.core.gnn` relies on this to stay
    bit-identical to its per-task loop reference.  Use
    :class:`repro.nn.Linear` where partition invariance is not needed.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    if x.ndim not in (1, 2):
        raise ValueError(f"linear expects a 1-D or 2-D input, got ndim={x.ndim}")
    xd, wd = x.data, weight.data
    if wd.ndim != 2 or xd.shape[-1] != wd.shape[0]:
        raise ValueError(f"linear shape mismatch: x {xd.shape} vs weight {wd.shape}")
    return _affine(x, weight, None if bias is None else as_tensor(bias), _linear_kernel(xd, wd))


def _affine(x: Tensor, weight: Tensor, bias: Tensor | None, product: np.ndarray) -> Tensor:
    """``product (+ bias)`` as one tape node, ``product`` being ``x @ weight``
    by whichever kernel the caller chose: the node of :func:`linear` and of
    :class:`repro.nn.Linear`.  The backward's products are those of the
    composed ``x @ weight + bias`` tape."""
    xd, wd = x.data, weight.data
    out_data, parents = product, (x, weight)
    if bias is not None:
        out_data, parents = product + bias.data, (x, weight, bias)

    def backward(grad: np.ndarray) -> None:
        grad = np.ascontiguousarray(grad)  # BLAS floats depend on operand layout
        if x.requires_grad:
            x._accumulate(grad @ wd.T)
        if weight.requires_grad:
            weight._accumulate(np.outer(xd, grad) if xd.ndim == 1 else xd.T @ grad)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad if grad.ndim == 1 else grad.sum(axis=0))

    return Tensor._make(out_data, parents, backward, "linear")


def _segment_sum_kernel(
    values: np.ndarray, segment_ids: np.ndarray, num_segments: int, axis: int = 0
) -> np.ndarray:
    """Array-level :func:`segment_sum` (``int64`` ids), shared with the fused
    GNN sweeps: ``(rows, ...)`` to ``(num_segments, ...)``, or feature-major
    (``axis=1``) ``(features, rows)`` to ``(features, num_segments)``.

    One flat ``bincount`` over (segment, column) — or (feature, segment) —
    cells: each accumulates its entries in ascending order from 0.0, so the
    floats equal ``np.add.at`` on zeros bit for bit, without ufunc.at's
    generic 2-D path.  No id-range pre-scan: ``bincount`` refuses the
    negative cell of a negative id, and an id past the end shows as a
    result longer than the cells.
    """
    if axis == 0:
        width = math.prod(values.shape[1:])
        cells = segment_ids[:, None] * width + np.arange(width)
        shape = (num_segments,) + values.shape[1:]
    else:
        cells = np.arange(0, len(values) * num_segments, num_segments)[:, None] + segment_ids
        shape = (len(values), num_segments)
    size = math.prod(shape)
    try:
        sums = np.bincount(cells.ravel(), weights=values.ravel(), minlength=size)
    except ValueError:
        sums = ()
    if len(sums) != size:
        raise ValueError(
            f"segment_sum: segment ids span [{segment_ids.min()}, {segment_ids.max()}], "
            f"outside [0, {num_segments})"
        )
    return sums.reshape(shape)


def _scatter_add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(target, rows, values)`` for a C-contiguous 2-D ``target``,
    over one flat ``row * width + column`` index per cell: each cell takes
    its values in the same order, so the floats are equal, without
    ufunc.at's generic 2-D path (the backward scatter of the GNN sweeps)."""
    if not target.flags.c_contiguous:
        raise ValueError("_scatter_add_rows: target must be C-contiguous")
    width = target.shape[1]
    cells = rows[:, None] * width + np.arange(width)
    np.add.at(target.reshape(-1), cells.ravel(), values.ravel())


def segment_sum(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``values`` into ``num_segments`` buckets.

    The scatter-add primitive behind GNN message aggregation: row ``i`` of
    ``values`` is added to output row ``segment_ids[i]``.
    """
    values = as_tensor(values)
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if segment_ids.ndim != 1 or len(segment_ids) != values.shape[0]:
        raise ValueError("segment_ids must be 1-D and match values' first axis")
    out_data = _segment_sum_kernel(values.data, segment_ids, num_segments)

    def backward(grad: np.ndarray) -> None:
        if values.requires_grad:
            values._accumulate(grad[segment_ids])

    return Tensor._make(out_data, (values,), backward, "segment_sum")


def _segment_counts(segment_ids: np.ndarray, num_segments: int) -> np.ndarray:
    """Rows per segment as floats — the mean's divisor, shared with the GNN sweep."""
    counts = np.bincount(segment_ids, minlength=num_segments).astype(np.float64)
    return np.maximum(counts, 1.0)  # avoid div-by-zero for empty segments


def segment_mean(values: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Mean-aggregate rows of ``values`` per segment (empty segments -> 0).

    The paper's experiments aggregate messages by mean (§5, experiment
    details), while Eq. 1 writes a sum; both are exposed.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    summed = segment_sum(values, segment_ids, num_segments)  # validates the ids
    counts = _segment_counts(segment_ids, num_segments)
    return summed / Tensor(counts.reshape((-1,) + (1,) * (summed.ndim - 1)))


def two_way_ids(src: np.ndarray, dst: np.ndarray, num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``(senders, receivers)`` over both directions' rows: the edges, then
    each one reversed with its ids offset by ``num_nodes``."""
    return np.concatenate((src, dst + num_nodes)), np.concatenate((dst, src + num_nodes))


def propagate(
    e0: Tensor, senders: np.ndarray, receivers: np.ndarray, counts: np.ndarray,
    layers, steps: int, edge_features: np.ndarray | None = None,
) -> Tensor:
    """``steps`` rounds of ``e <- relu(agg_layer(Σ relu(msg_layer([e[senders]
    ∥ x^e])) / counts)) + e0`` in both directions as one tape node, returning
    the row-major ``(N, 2d)`` concatenation: the k-step pass of GiPH-k (Eq. 4)
    and of Placeto.  ``senders``/``receivers`` are :func:`two_way_ids` over a
    ``(2N, d)`` state, ``counts`` (``(2N, 1)``) the messages per receiver
    floored at 1 for a mean, ones for a sum, ``layers`` one ``(msg_layer,
    agg_layer)`` per direction.  Gather, relu, segment sum and divide run once
    over both directions' rows, each weight's ``@`` per direction on a
    C-contiguous row block shaped as a lone direction's (BLAS floats depend on
    operand shape and layout).  The backward replays, last step first, the
    float operations of the composed tape in its order (oracle:
    ``two_way_composed`` in ``tests/baselines/reference.py``); ``e0``'s 2k + 2
    terms come last, the forward direction's, then the backward's.  Every
    parent is a parameter or computed from one: none is tested for
    ``requires_grad``."""
    params = [(msg.weight, msg.bias, agg.weight, agg.bias) for msg, agg in layers]
    e0d = e0.data
    n, d = e0d.shape
    m = len(senders) // 2
    rows, edges = (slice(0, n), slice(n, 2 * n)), (slice(0, m), slice(m, 2 * m))
    if m == 0:  # no step reads the one before: only the last is on the composed tape
        steps = 1
    s = np.empty((2 * m, params[0][0].shape[0]))  # [e[senders] ∥ x^e], edge half written once
    if edge_features is not None:
        s[:m, d:] = s[m:, d:] = edge_features
    if m and not 0 <= receivers.min() <= receivers.max() < 2 * n:
        raise ValueError(f"propagate: receivers outside [0, {2 * n})")
    width = params[0][0].shape[1]  # a message's; the segment sum's flat cells, made once:
    cells, size = (receivers[:, None] * width + np.arange(width)).ravel(), 2 * n * width
    x = np.concatenate((e0d, e0d))
    e, saved = x, []
    for _ in range(steps):
        s[:, :d] = e[senders]
        pre = np.empty((2 * m, width))
        for (wm, bm, _, _), r in zip(params, edges):
            np.add(s[r] @ wm.data, bm.data, out=pre[r])
        np.maximum(pre, 0.0, out=pre)  # the backward's mask: relu(pre) > 0 where pre > 0
        agg = np.bincount(cells, pre.ravel(), size).reshape(2 * n, width) / counts
        h = np.empty(x.shape)
        for (_, _, wa, ba), r in zip(params, rows):
            np.add(agg[r] @ wa.data, ba.data, out=h[r])
        saved.append((e, pre, agg, h))
        e = np.maximum(h, 0.0)
        e += x

    def backward(grad: np.ndarray) -> None:
        G = np.concatenate((grad[:, :d], grad[:, d:]))  # gradient of the step output being unwound
        residuals, back = [], None
        for step in reversed(range(steps)):
            e_in, pre, agg, h = saved[step]
            residuals.append(G)
            g_h, g_agg = G * (h > 0), np.empty(agg.shape)
            for (_, _, wa, ba), r in zip(params, rows):
                ba._accumulate(g_h[r].sum(axis=0))
                wa._accumulate(agg[r].T @ g_h[r])
                np.matmul(g_h[r], wa.data.T, out=g_agg[r])
            if m == 0:
                break  # the composed tape never runs ``msg_layer`` here
            g_pre = (g_agg / counts)[receivers] * (pre > 0)
            s[:, :d] = e_in[senders]  # the buffer the step read
            back = np.empty((2 * m, d))
            for (wm, bm, _, _), r in zip(params, edges):
                bm._accumulate(g_pre[r].sum(axis=0))
                wm._accumulate(s[r].T @ g_pre[r])
                back[r] = (g_pre[r] @ wm.data.T)[:, :d]  # the sender columns, as concat routes them
            if step:  # later steps gathered from an output nothing else reads
                G = np.zeros(x.shape)
                _scatter_add_rows(G, senders, back)
        for r, es, offset in zip(rows, edges, (0, n)):
            for G in residuals:
                e0._accumulate(G[r])
            if back is not None:  # step 0 gathered from e0 itself
                _scatter_add_rows(e0.grad, senders[es] - offset, back[es])

    out = np.concatenate((e[:n], e[n:]), axis=1)
    return Tensor._make(out, (e0, *params[0], *params[1]), backward, "propagate")
