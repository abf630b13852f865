"""Tests for Linear/MLP/Sequential, Module bookkeeping, and optimizers."""

import numpy as np
import pytest

from repro.nn import MLP, Adam, Linear, Module, Parameter, Sequential, Tensor


def rng():
    return np.random.default_rng(42)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 3, rng())
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        layer = Linear(4, 3, rng(), bias=False)
        assert layer.bias is None
        assert sum(1 for _ in layer.parameters()) == 1

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 3, rng())

    def test_gradient_flow(self):
        layer = Linear(2, 1, rng())
        out = layer(Tensor([[1.0, 2.0]]))
        out.sum().backward()
        assert layer.weight.grad is not None
        np.testing.assert_allclose(layer.weight.grad.ravel(), [1.0, 2.0])


class TestMLP:
    def test_paper_policy_shape(self):
        # The paper's score function: 10 -> 16 -> 1 (Table 5).
        mlp = MLP([10, 16, 1], rng())
        out = mlp(Tensor(np.ones((7, 10))))
        assert out.shape == (7, 1)

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            MLP([4], rng())

    def test_learns_xor_direction(self):
        # Tiny end-to-end sanity check: fit y = x0 - x1 with MSE.
        r = np.random.default_rng(0)
        mlp = MLP([2, 8, 1], r)
        opt = Adam(mlp.parameters(), lr=0.02)
        x = r.normal(size=(64, 2))
        y = (x[:, 0] - x[:, 1]).reshape(-1, 1)
        first = None
        for _ in range(150):
            opt.zero_grad()
            pred = mlp(Tensor(x))
            diff = pred - Tensor(y)
            loss = (diff * diff).mean()
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.1 * first


class TestModule:
    def test_named_parameters_nested(self):
        class Net(Module):
            def __init__(self):
                self.a = Linear(2, 2, rng())
                self.inner = Sequential(Linear(2, 2, rng()))

        names = dict(Net().named_parameters())
        assert "a.weight" in names and "inner.modules.0.weight" in names

    def test_state_dict_roundtrip(self):
        net1, net2 = MLP([3, 4, 2], rng()), MLP([3, 4, 2], np.random.default_rng(7))
        net2.load_state_dict(net1.state_dict())
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(net1(x).data, net2(x).data)

    def test_state_dict_mismatch_raises(self):
        net = MLP([3, 4, 2], rng())
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError):
            net.load_state_dict(state)

    def test_state_dict_shape_mismatch(self):
        net = MLP([3, 4, 2], rng())
        state = net.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_zero_grad(self):
        net = MLP([2, 2], rng())
        net(Tensor(np.ones((1, 2)))).sum().backward()
        Adam(net.parameters()).zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestOptim:
    def _quadratic_descends(self, make_opt):
        p = Parameter(np.array([5.0]))
        opt = make_opt([p])
        for _ in range(200):
            opt.zero_grad()
            (p * p).backward()
            opt.step()
        return abs(float(p.data[0]))

    def test_adam_converges(self):
        assert self._quadratic_descends(lambda ps: Adam(ps, lr=0.1)) < 1e-2

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.01)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_clip_grad_norm(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        opt = Adam([p], lr=0.1)
        pre = opt.clip_grad_norm(1.0)
        assert pre == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        p = Parameter(np.zeros(2))
        p.grad = np.array([0.1, 0.1])
        Adam([p], lr=0.1).clip_grad_norm(10.0)
        np.testing.assert_allclose(p.grad, [0.1, 0.1])
