"""Autograd engine tests, including finite-difference gradient checks."""

import numpy as np
import pytest
from nn_reference import log_softmax

from repro.nn import Tensor, concat, no_grad, stack
from repro.nn import functional as F


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def square(t: Tensor) -> Tensor:
    """Elementwise square on the tape: a non-linear loss for gradchecks."""
    return t * t


def check_grad(build, x: np.ndarray, atol: float = 1e-5) -> None:
    """Compare autograd gradient against finite differences."""
    t = Tensor(x.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    expected = numeric_grad(lambda arr: float(build(Tensor(arr)).data), x.copy())
    np.testing.assert_allclose(t.grad, expected, atol=atol)


class TestElementwise:
    def test_add_broadcast_grad(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_grad(self):
        check_grad(lambda t: (t * t * 2.0).sum(), np.random.default_rng(1).normal(size=(3, 3)))

    def test_div_grad(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.5, 2.0, size=(4,))
        check_grad(lambda t: (Tensor(1.0) / t).sum(), x)

    def test_sub_and_neg(self):
        a = Tensor([3.0], requires_grad=True)
        b = Tensor([1.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0 and b.grad[0] == -1.0


class TestMatmul:
    @pytest.mark.parametrize(
        "ashape,bshape",
        [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))],
    )
    def test_matmul_grad_shapes(self, ashape, bshape):
        rng = np.random.default_rng(4)
        a0, b0 = rng.normal(size=ashape), rng.normal(size=bshape)

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a @ b).sum().backward()

        na = numeric_grad(lambda arr: float((arr @ b0).sum()), a0.copy())
        nb = numeric_grad(lambda arr: float((a0 @ arr).sum()), b0.copy())
        np.testing.assert_allclose(a.grad, na, atol=1e-5)
        np.testing.assert_allclose(b.grad, nb, atol=1e-5)


class TestReductionsAndShape:
    def test_sum_axis_keepdims(self):
        x = np.random.default_rng(5).normal(size=(2, 3, 4))
        check_grad(lambda t: square(t.sum(axis=1, keepdims=True)).sum(), x)

    def test_mean_grad(self):
        x = np.random.default_rng(6).normal(size=(3, 5))
        check_grad(lambda t: t.mean(), x)

    def test_reshape_grad(self):
        x = np.random.default_rng(8).normal(size=(2, 6))
        check_grad(lambda t: square(t.reshape(3, 4)).sum(), x)

    def test_getitem_grad(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        x[1].sum().backward()
        np.testing.assert_allclose(x.grad, [[0, 0, 0], [1, 1, 1]])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["relu", "tanh", "sigmoid", "exp"])
    def test_unary_grads(self, op):
        x = np.random.default_rng(9).normal(size=(4, 3)) + 0.1  # avoid relu kink
        check_grad(lambda t: getattr(t, op)().sum(), x)

    def test_log_grad(self):
        x = np.random.default_rng(10).uniform(0.5, 3.0, size=(4,))
        check_grad(lambda t: t.log().sum(), x)


class TestCombinators:
    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = concat([a, b], axis=1)
        (out * np.arange(10.0).reshape(2, 5)).sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_stack_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        out[1].sum().backward()
        np.testing.assert_allclose(a.grad, np.zeros(3))
        np.testing.assert_allclose(b.grad, np.ones(3))

    def test_shared_node_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        (y + y).backward()
        np.testing.assert_allclose(x.grad, [6.0])


class TestMode:
    def test_no_grad_blocks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_backward_on_nongrad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()


class TestFunctional:
    def test_softmax_sums_to_one(self):
        x = Tensor(np.random.default_rng(11).normal(size=(5,)))
        np.testing.assert_allclose(F.softmax(x).data.sum(), 1.0)

    def test_log_softmax_matches_softmax(self):
        x = Tensor(np.random.default_rng(12).normal(size=(7,)))
        np.testing.assert_allclose(log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12)

    def test_log_softmax_grad(self):
        x = np.random.default_rng(13).normal(size=(6,))
        check_grad(lambda t: log_softmax(t)[2], x)

    def test_masked_log_softmax_excludes(self):
        scores = Tensor(np.zeros(4))
        mask = np.array([True, False, True, False])
        lp = F.masked_log_softmax(scores, mask).data
        np.testing.assert_allclose(np.exp(lp[mask]), [0.5, 0.5])
        assert (lp[~mask] < -100).all()

    def test_masked_log_softmax_all_false_raises(self):
        with pytest.raises(ValueError):
            F.masked_log_softmax(Tensor(np.zeros(3)), np.zeros(3, dtype=bool))

    def test_masked_log_softmax_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.masked_log_softmax(Tensor(np.zeros(3)), np.ones(4, dtype=bool))

    def test_segment_sum_values(self):
        vals = Tensor(np.arange(8, dtype=float).reshape(4, 2))
        out = F.segment_sum(vals, np.array([0, 1, 0, 2]), 3)
        np.testing.assert_allclose(out.data, [[4, 6], [2, 3], [6, 7]])

    def test_segment_sum_grad(self):
        x = np.random.default_rng(14).normal(size=(5, 2))
        ids = np.array([0, 0, 1, 2, 1])
        check_grad(lambda t: square(F.segment_sum(t, ids, 3)).sum(), x)

    def test_segment_mean_empty_segment_is_zero(self):
        vals = Tensor(np.ones((2, 3)))
        out = F.segment_mean(vals, np.array([0, 0]), 2)
        np.testing.assert_allclose(out.data[1], 0.0)
        np.testing.assert_allclose(out.data[0], 1.0)

    def test_segment_sum_bad_ids(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 1]), 2)

    def test_gather_rows_grad(self):
        x = np.random.default_rng(15).normal(size=(4, 3))
        check_grad(lambda t: t[np.array([1, 1, 3])].sum(), x)
