"""Gradchecks and invariance pins for the segment-op family.

These ops are the substrate of the vectorized GNN hot path: the
frontier-batched message passing in ``repro.core.gnn`` is only
bit-identical to its per-task loop reference because

* ``F.linear`` is batch-invariant (each output row depends on its own
  input row alone, reduced in a fixed sequential order), and
* the scatter/gather/segment ops preserve ``np.add.at``-style
  elementwise accumulation order.

Every new op gets a central-difference gradient check; the linear
kernel additionally gets its row/partition invariance pinned, since the
whole bit-identity guarantee of ``tests/core/test_gnn_vectorized.py``
rests on it.
"""

import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn import functional as F

# ``scatter_rows`` serves the composed GNN oracle only and lives beside it.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "core"))
from gnn_reference import scatter_rows  # noqa: E402


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


SEGMENTS = np.array([0, 2, 1, 0, 2, 2, 1], dtype=np.int64)


class TestLinear:
    @pytest.mark.parametrize("bias", [False, True])
    def test_forward_matches_matmul(self, bias):
        rng = np.random.default_rng(0)
        x, w = rng.normal(size=(6, 4)), rng.normal(size=(4, 3))
        b = rng.normal(size=3) if bias else None
        out = F.linear(Tensor(x), Tensor(w), Tensor(b) if bias else None)
        expected = x @ w + (b if bias else 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_grad_2d_with_bias(self):
        rng = np.random.default_rng(1)
        w, b = rng.normal(size=(4, 3)), rng.normal(size=3)
        check_grad(
            lambda t: square(F.linear(t, Tensor(w), Tensor(b))).sum(),
            rng.normal(size=(5, 4)),
        )

    def test_grad_1d_input(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 3))
        check_grad(lambda t: square(F.linear(t, Tensor(w))).sum(), rng.normal(size=4))

    def test_weight_and_bias_grads(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 4))
        w0, b0 = rng.normal(size=(4, 3)), rng.normal(size=3)
        wt = Tensor(w0.copy(), requires_grad=True)
        bt = Tensor(b0.copy(), requires_grad=True)
        square(F.linear(Tensor(x), wt, bt)).sum().backward()
        nw = numeric_grad(lambda arr: float(((x @ arr + b0) ** 2).sum()), w0.copy())
        nb = numeric_grad(lambda arr: float(((x @ w0 + arr) ** 2).sum()), b0.copy())
        np.testing.assert_allclose(wt.grad, nw, atol=1e-4)
        np.testing.assert_allclose(bt.grad, nb, atol=1e-4)

    def test_row_partition_invariance_bitwise(self):
        """The property the GNN bit-identity guarantee rests on.

        Any row of a batched ``F.linear`` must be byte-identical to
        applying the kernel to that row alone or to any sub-batch
        containing it (``np.matmul`` does NOT satisfy this — its BLAS
        kernel choice depends on the batch shape).
        """
        rng = np.random.default_rng(4)
        for trial in range(20):
            n, k, m = rng.integers(1, 40), rng.integers(1, 30), rng.integers(1, 12)
            x, w = rng.normal(size=(n, k)), rng.normal(size=(k, m))
            b = rng.normal(size=m)
            full = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
            # The fused GNN sweep calls the array-level kernel directly.
            assert np.array_equal(F._linear_kernel(x, w) + b, full)
            lo, hi = sorted(rng.integers(0, n + 1, size=2))
            part = F.linear(Tensor(x[lo:hi]), Tensor(w), Tensor(b)).data
            assert np.array_equal(full[lo:hi], part)
            assert np.array_equal(F._linear_kernel(x[lo:hi], w) + b, part)
            i = int(rng.integers(0, n))
            row = F.linear(Tensor(x[i]), Tensor(w), Tensor(b)).data
            assert np.array_equal(full[i], row)
            assert np.array_equal(F._linear_kernel(x[i], w) + b, row)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.sampled_from([0, 1, 7, 33, 2001, 2500]),
        k=st.sampled_from([4, 5, 9, 10, 16]),
        m=st.sampled_from([4, 5, 9, 10, 16]),
        contiguous=st.booleans(),
    )
    def test_feature_major_kernel_equals_row_major_bitwise(self, seed, rows, k, m, contiguous):
        """``_linear_kernel_fm`` — the GNN sweep's kernel — produces the
        floats of the row-major einsum and of the per-row loop, for any
        partition of the rows and for a strided operand."""
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(rows, k)) * 10.0 ** rng.integers(-6, 6)
        x[rng.random(x.shape) < 0.15] = 0.0
        x[rng.random(x.shape) < 0.15] = -0.0
        w = rng.normal(size=(k, m))
        xT = np.ascontiguousarray(x.T)
        if not contiguous:
            xT = np.repeat(xT, 2, axis=1)[:, ::2]
            assert rows < 2 or not xT.flags.c_contiguous
        out = F._linear_kernel_fm(xT, w)
        assert out.shape == (m, rows) and out.dtype == np.float64
        row_major = np.einsum("...k,kj->...j", x, w)
        assert np.array_equal(out.T, row_major)
        assert np.array_equal(np.signbit(out.T), np.signbit(row_major))
        assert np.array_equal(out.T, F._linear_kernel(x, w))
        for i in range(rows):
            assert np.array_equal(out[:, i], F._linear_kernel(x[i], w))
        # Rows (columns here) do not see each other: any sub-batch, taken
        # as a strided view or as a fresh array, gives the same columns.
        lo, hi = sorted(int(v) for v in rng.integers(0, rows + 1, size=2))
        assert np.array_equal(F._linear_kernel_fm(xT[:, lo:hi], w), out[:, lo:hi])
        assert np.array_equal(
            F._linear_kernel_fm(np.ascontiguousarray(xT[:, lo:hi]), w), out[:, lo:hi]
        )
        picks = rng.permutation(rows)[: rows // 2]
        assert np.array_equal(F._linear_kernel_fm(xT.take(picks, axis=1), w), out[:, picks])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.linear(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((4, 2))))
        with pytest.raises(ValueError):
            F.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


class TestSegmentSum:
    def test_forward(self):
        vals = np.arange(14, dtype=np.float64).reshape(7, 2)
        out = F.segment_sum(Tensor(vals), SEGMENTS, 4)
        expected = np.zeros((4, 2))
        for i, s in enumerate(SEGMENTS):
            expected[s] += vals[i]
        np.testing.assert_array_equal(out.data, expected)

    def test_grad(self):
        rng = np.random.default_rng(5)
        check_grad(
            lambda t: square(F.segment_sum(t, SEGMENTS, 3)).sum(),
            rng.normal(size=(7, 2)),
        )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.zeros((3, 2))), np.array([0, 1]), 2)

    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_mean])
    def test_negative_id_rejected_not_wrapped(self, op):
        """-1 used to land in the last segment (``np.add.at`` indexing)."""
        with pytest.raises(ValueError, match=r"segment_sum.*\[-1, 1\].*\[0, 3\)"):
            op(Tensor(np.ones((3, 2))), np.array([0, -1, 1]), 3)

    @pytest.mark.parametrize("op", [F.segment_sum, F.segment_mean])
    def test_id_beyond_num_segments_rejected(self, op):
        """Used to surface as a raw NumPy IndexError."""
        with pytest.raises(ValueError, match=r"segment_sum.*\[0, 3\].*\[0, 3\)"):
            op(Tensor(np.ones((3, 2))), np.array([0, 3, 1]), 3)

    @pytest.mark.parametrize(
        "ids, span", [([0, -1, 1], r"\[-1, 1\]"), ([0, 3, 1], r"\[0, 3\]")]
    )
    def test_kernel_rejects_out_of_range_ids(self, ids, span):
        """The fused GNN sweep calls the array-level kernel directly, so
        the id-range check is pinned where the sweep calls it."""
        with pytest.raises(ValueError, match=rf"segment_sum.*{span}.*\[0, 3\)"):
            F._segment_sum_kernel(np.ones((3, 2)), np.array(ids, dtype=np.int64), 3)

    @pytest.mark.parametrize(
        "ids, span", [([0, -1, 1], r"\[-1, 1\]"), ([0, 3, 1], r"\[0, 3\]"), ([-4, 5, 1], r"\[-4, 5\]")]
    )
    def test_feature_major_kernel_rejects_out_of_range_ids(self, ids, span):
        """No pre-scan: the (feature, segment) cells themselves give an
        out-of-range id away — a negative one in feature 0, one past the
        end in the last feature — and the error still names the span."""
        with pytest.raises(ValueError, match=rf"segment_sum.*{span}.*\[0, 3\)"):
            F._segment_sum_kernel(np.ones((2, 3)), np.array(ids, dtype=np.int64), 3, axis=1)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.sampled_from([0, 1, 2, 5, 12, 300]),
        width=st.sampled_from([1, 5, 9]),
        num_segments=st.integers(1, 6),
    )
    def test_feature_major_kernel_bit_identical_to_row_major(self, seed, rows, width, num_segments):
        """The sweep's segment sum over (feature, segment) cells equals
        the row-major kernel (itself pinned to ``np.add.at`` below),
        signed zeros included, and returns a C-contiguous array."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_segments, size=rows)
        vals = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-8, 8)
        vals[rng.random(vals.shape) < 0.2] = 0.0
        vals[rng.random(vals.shape) < 0.2] = -0.0
        expected = F._segment_sum_kernel(vals, ids, num_segments)
        out = F._segment_sum_kernel(np.ascontiguousarray(vals.T), ids, num_segments, axis=1)
        assert out.shape == (width, num_segments) and out.flags.c_contiguous
        assert np.array_equal(out.T, expected)
        assert np.array_equal(np.signbit(out.T), np.signbit(expected))
        assert np.array_equal(F._segment_sum_kernel(vals.T, ids, num_segments, axis=1), out)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        rows=st.integers(0, 12),
        trailing=st.sampled_from([(), (1,), (3,), (9,), (2, 3), (0,)]),
        num_segments=st.integers(1, 6),
        with_grad=st.booleans(),
    )
    def test_forward_bit_identical_to_add_at_oracle(
        self, seed, rows, trailing, num_segments, with_grad
    ):
        """The flat-bincount kernel equals ``np.add.at`` on zeros bit for
        bit: unsorted and duplicate ids, empty segments, zero rows, 1-D to
        3-D values, signed values with exact zeros of both signs."""
        rng = np.random.default_rng(seed)
        ids = rng.integers(0, num_segments, size=rows)
        vals = rng.normal(size=(rows,) + trailing) * 10.0 ** rng.integers(-8, 8)
        vals[rng.random(vals.shape) < 0.2] = 0.0
        vals[rng.random(vals.shape) < 0.2] = -0.0
        oracle = np.zeros((num_segments,) + trailing)
        np.add.at(oracle, ids, vals)
        out = F.segment_sum(Tensor(vals), ids, num_segments).data
        assert out.dtype == oracle.dtype and out.shape == oracle.shape
        assert np.array_equal(out, oracle)
        assert np.array_equal(np.signbit(out), np.signbit(oracle))
        kernel = F._segment_sum_kernel(vals, ids, num_segments)
        assert np.array_equal(kernel, out)
        assert np.array_equal(np.signbit(kernel), np.signbit(out))
        if with_grad and 0 < vals.size <= 24:  # unit scale: finite differences
            check_grad(
                lambda t: square(F.segment_sum(t, ids, num_segments)).sum(),
                rng.normal(size=vals.shape),
            )


class TestSegmentMean:
    def test_empty_segment_is_zero(self):
        out = F.segment_mean(Tensor(np.ones((2, 3))), np.array([0, 2]), 4)
        np.testing.assert_array_equal(out.data[1], np.zeros(3))
        np.testing.assert_array_equal(out.data[3], np.zeros(3))

    def test_grad(self):
        rng = np.random.default_rng(6)
        check_grad(
            lambda t: square(F.segment_mean(t, SEGMENTS, 4)).sum(),
            rng.normal(size=(7, 3)),
        )


class TestGatherScatter:
    def test_gather_grad_accumulates_duplicates(self):
        rng = np.random.default_rng(9)
        idx = np.array([0, 2, 2, 1, 0])
        check_grad(
            lambda t: square(t[idx]).sum(), rng.normal(size=(3, 2))
        )

    def test_scatter_rows_forward(self):
        base = Tensor(np.zeros((4, 2)))
        rows = Tensor(np.ones((2, 2)))
        out = scatter_rows(base, np.array([3, 1]), rows)
        np.testing.assert_array_equal(out.data[[3, 1]], np.ones((2, 2)))
        np.testing.assert_array_equal(out.data[[0, 2]], np.zeros((2, 2)))

    def test_scatter_rows_grads(self):
        rng = np.random.default_rng(10)
        idx = np.array([3, 1])
        rows0 = rng.normal(size=(2, 2))
        check_grad(
            lambda t: square(scatter_rows(t, idx, Tensor(rows0))).sum(),
            rng.normal(size=(4, 2)),
        )
        base0 = rng.normal(size=(4, 2))
        check_grad(
            lambda t: square(scatter_rows(Tensor(base0), idx, t)).sum(),
            rng.normal(size=(2, 2)),
        )

    def test_scatter_rows_rejects_duplicates(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.zeros((3, 1))), np.array([1, 1]), Tensor(np.ones((2, 1))))

    def test_scatter_rows_assume_unique_skips_check_only(self):
        base, rows = np.zeros((4, 2)), np.ones((2, 2))
        idx = np.array([0, 3])
        a = scatter_rows(Tensor(base), idx, Tensor(rows))
        b = scatter_rows(Tensor(base), idx, Tensor(rows), assume_unique=True)
        assert np.array_equal(a.data, b.data)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            scatter_rows(Tensor(np.zeros((3, 1))), np.array([0]), Tensor(np.zeros((2, 1))))
