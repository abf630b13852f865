"""Gradient-based optimizers.

The paper trains every policy with Adam at a fixed learning rate of 0.01
(§5, experiment details).
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

import numpy as np

from .module import Parameter

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Scale gradients so their global L2 norm is at most ``max_norm``.

        Returns the pre-clip norm.  REINFORCE returns have high variance;
        clipping keeps pure-NumPy training stable without changing the
        learning dynamics near convergence.
        """
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale
        return norm


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    Optimizer state lives in two flat float64 buffers spanning every
    parameter (``_m``/``_v`` are reshaped views into them).  A step
    concatenates the gradients once and runs each elementwise pass —
    moment decay, bias correction, the update — over all parameters at
    a time instead of once per tensor, so a model with dozens of small
    GNN weight matrices pays ufunc dispatch a handful of times per step
    rather than hundreds.  Elementwise math is per-element independent
    and the passes evaluate the exact per-tensor expressions in the
    exact order, so trajectories are bit-identical to a per-tensor
    loop.  A parameter without a gradient splits the buffer into the
    runs of consecutive parameters that have one and is itself skipped
    entirely: it keeps stale moments AND skips decay.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._t = 0
        total = sum(p.data.size for p in self.params)
        self._flat_m = np.zeros(total)
        self._flat_v = np.zeros(total)
        self._slices: list[slice] = []
        offset = 0
        for p in self.params:
            self._slices.append(slice(offset, offset + p.data.size))
            offset += p.data.size
        # Per-tensor views aliasing the flat buffers (contiguous slices
        # reshape without copying).
        self._m = [
            self._flat_m[sl].reshape(p.data.shape)
            for p, sl in zip(self.params, self._slices)
        ]
        self._v = [
            self._flat_v[sl].reshape(p.data.shape)
            for p, sl in zip(self.params, self._slices)
        ]

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        for has_grad, group in groupby(
            zip(self.params, self._slices), key=lambda pair: pair[0].grad is not None
        ):
            if not has_grad:
                continue
            run = list(group)
            start = run[0][1].start
            m = self._flat_m[start : run[-1][1].stop]
            v = self._flat_v[start : run[-1][1].stop]
            grad = np.concatenate([p.grad.ravel() for p, _ in run])
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            # ``g**2`` lowers to np.square for ndarrays, so squaring the
            # (private) concatenated copy in place matches it bit for bit.
            np.square(grad, out=grad)
            v += (1 - b2) * grad
            # Same association as the per-tensor expression:
            # (lr * (m / bc1)) / (sqrt(v / bc2) + eps).
            update = self.lr * (m / bc1)
            denom = np.sqrt(v / bc2)
            denom += self.eps
            update /= denom
            for p, sl in run:
                p.data -= update[sl.start - start : sl.stop - start].reshape(p.data.shape)
