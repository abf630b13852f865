"""Fused Adam: the flat-buffer multi-parameter step must be a pure
speed change — bit-identical trajectories against a per-tensor Adam
(the oracle below), including steps where some parameters have no
gradient."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.nn.optim import Adam

SHAPES = [(3, 4), (7,), (2, 5, 2), (1,)]


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    return [Parameter(rng.standard_normal(shape)) for shape in SHAPES]


def drive(params, optimizer, steps=40, drop_every=None):
    rng = np.random.default_rng(1)
    for t in range(steps):
        for p in params:
            p.grad = rng.standard_normal(p.data.shape)
        if drop_every and t % drop_every == 2:
            params[1].grad = None
        optimizer.step()


class PerTensorAdam:
    """Oracle: textbook Adam, one tensor at a time; a parameter without
    a gradient is skipped entirely (stale moments, no decay)."""

    def __init__(self, params, lr, betas=(0.9, 0.999), eps=1e-8):
        self.params, self.lr, self.betas, self.eps = params, lr, betas, eps
        self._t = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self._t += 1
        b1, b2 = self.betas
        bc1, bc2 = 1.0 - b1**self._t, 1.0 - b2**self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            m *= b1
            m += (1 - b1) * p.grad
            v *= b2
            v += (1 - b2) * p.grad**2
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class TestFusedAdam:
    @pytest.mark.parametrize("drop_every", [None, 5])
    def test_bit_identical_to_per_tensor(self, drop_every):
        fused_params = make_params()
        plain_params = make_params()
        fused = Adam(fused_params, lr=0.01)
        plain = PerTensorAdam(plain_params, lr=0.01)
        drive(fused_params, fused, drop_every=drop_every)
        drive(plain_params, plain, drop_every=drop_every)
        for p, q in zip(fused_params, plain_params):
            assert np.array_equal(p.data, q.data)
        for m, n in zip(fused._m, plain._m):
            assert np.array_equal(m, n)
        for v, w in zip(fused._v, plain._v):
            assert np.array_equal(v, w)

    def test_moment_views_alias_flat_buffers(self):
        optimizer = Adam(make_params(), lr=0.01)
        for view in optimizer._m:
            assert view.base is optimizer._flat_m
        for view in optimizer._v:
            assert view.base is optimizer._flat_v
        assert optimizer._flat_m.size == sum(
            np.prod(shape, dtype=int) for shape in SHAPES
        )

    def test_skipped_grad_freezes_param_and_moments(self):
        params = make_params()
        optimizer = Adam(params, lr=0.01)
        for p in params:
            p.grad = np.ones_like(p.data)
        optimizer.step()
        frozen_data = params[0].data.copy()
        frozen_m = optimizer._m[0].copy()
        frozen_v = optimizer._v[0].copy()
        params[0].grad = None
        for p in params[1:]:
            p.grad = np.ones_like(p.data)
        optimizer.step()
        assert np.array_equal(params[0].data, frozen_data)
        assert np.array_equal(optimizer._m[0], frozen_m)
        assert np.array_equal(optimizer._v[0], frozen_v)
        assert not np.array_equal(
            optimizer._m[1], np.zeros_like(optimizer._m[1])
        )

    def test_fused_descends_quadratic(self):
        rng = np.random.default_rng(3)
        param = Parameter(rng.standard_normal(8))
        optimizer = Adam([param], lr=0.1)
        for _ in range(200):
            param.grad = 2.0 * param.data
            optimizer.step()
        assert float(np.abs(param.data).max()) < 1e-2
