"""Test oracles: the composed tapes that ``repro.nn``'s one-node ops replaced.

``repro.nn.Linear`` and ``repro.nn.functional.masked_log_softmax`` are
single tape nodes with hand-written backwards.  The ordinary ``Tensor``
expressions they replaced live here, so the tests can demand the same
floats — outputs and every gradient, zero signs included:

* :func:`linear_composed` — ``x @ W + b`` (a matmul node, then an add);
* :func:`log_softmax` and :func:`masked_log_softmax_composed` —
  ``log_softmax(scores + neg)`` with the mask as a large negative addend.
"""

import numpy as np

from repro.nn import Tensor, as_tensor

__all__ = ["linear_composed", "log_softmax", "masked_log_softmax_composed"]


def linear_composed(x, weight, bias=None):
    """``Linear.forward`` as a two-node tape: ``x @ weight (+ bias)``."""
    out = as_tensor(x) @ weight
    return out if bias is None else out + bias


def log_softmax(x, axis: int = -1):
    """Numerically stable log-softmax along ``axis``."""
    x = as_tensor(x)
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def masked_log_softmax_composed(scores, mask):
    """``masked_log_softmax`` as a composed tape (no argument checks)."""
    neg = Tensor(np.where(np.asarray(mask, dtype=bool), 0.0, -1e9))
    return log_softmax(as_tensor(scores) + neg, axis=-1)
