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


def propagate(
    e0: Tensor, senders: np.ndarray, receivers: np.ndarray, counts: np.ndarray,
    msg_layer, agg_layer, steps: int, edge_features: np.ndarray | None = None,
) -> Tensor:
    """``steps`` synchronous rounds of
    ``e <- relu(agg_layer(Σ relu(msg_layer([e[senders] ∥ x^e])) / counts)) + e0``
    as one tape node: the k-step pass of GiPH-k (Eq. 4) and of Placeto.

    The sum runs per receiver; ``counts`` (``(num_nodes, 1)``) divides it:
    messages per receiver floored at 1 for a mean, ones for a sum.
    ``edge_features`` (GiPH-k's ``x^e``) are concatenated to the gathered
    sender rows.  The layers multiply with ``@``, as ``Linear`` does.  The
    backward replays, last step first, the float operations of the composed
    ``Tensor`` tape in its order (oracle: ``propagate_composed`` in
    ``tests/baselines/reference.py``).  Every parent is a parameter or
    computed from one, so none is tested for ``requires_grad``.
    """
    wm, bm, wa, ba = msg_layer.weight, msg_layer.bias, agg_layer.weight, agg_layer.bias
    parents = (e0, wm, bm, wa, ba)
    e0d, wmd, bmd, wad, bad = (p.data for p in parents)
    embed_dim = e0d.shape[1]
    if len(senders) == 0:
        # Edgeless: no step reads the one before it (every ``agg`` is
        # zeros), so all compute the same floats and only the last is on
        # the composed tape — one step, accumulated once.
        steps = 1
    e, saved = e0d, []
    for _ in range(steps):
        s = e[senders]
        if edge_features is not None:  # one product over [e ∥ x^e]: a split sums in another order
            s = np.concatenate([s, edge_features], axis=1)
        pre = s @ wmd + bmd
        agg = _segment_sum_kernel(np.maximum(pre, 0.0), receivers, len(e0d)) / counts
        h = agg @ wad + bad
        e = np.maximum(h, 0.0) + e0d
        saved.append((s, pre, agg, h))

    def backward(grad: np.ndarray) -> None:
        G = grad  # gradient of the step output being unwound
        for step in reversed(range(steps)):
            s, pre, agg, h = saved[step]
            e0._accumulate(G)
            g_h = G * (h > 0)
            ba._accumulate(g_h.sum(axis=0))
            wa._accumulate(agg.T @ g_h)
            if len(senders) == 0:
                return  # the composed tape never runs ``msg_layer`` here
            g_pre = ((g_h @ wad.T) / counts)[receivers] * (pre > 0)
            bm._accumulate(g_pre.sum(axis=0))
            wm._accumulate(s.T @ g_pre)
            # Step 0 gathered from e0 itself (after its ``_accumulate``
            # above); later steps from an output nothing else reads.  The
            # sender columns of the whole input's gradient, as concat routes it.
            G = np.zeros(e0d.shape) if step else e0.grad
            _scatter_add_rows(G, senders, (g_pre @ wmd.T)[:, :embed_dim])

    return Tensor._make(e, parents, backward, "propagate")
