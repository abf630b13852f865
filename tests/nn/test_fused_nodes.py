"""The one-node tape ops against the composed tapes they replaced.

``Linear`` (``x @ W + b``) and ``masked_log_softmax``
(``log_softmax(scores + neg)``) are single tape nodes whose backwards run
the composed tape's float operations in its order; the oracles live in
``nn_reference.py``.  Outputs and gradients must match byte for byte,
zero signs included.  ``Tensor.__getitem__`` adds an int or slice
gradient with ``+=`` and keeps ``np.add.at`` for everything else.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from nn_reference import linear_composed, masked_log_softmax_composed

import repro.nn.tensor as tensor_module
from repro.nn import Linear, Tensor
from repro.nn import functional as F

# Signed zeros are drawn on purpose: a one-node backward that sums in
# another order or starts from a copy instead of zeros flips their sign.
FLOATS = st.one_of(
    st.floats(-10.0, 10.0, allow_subnormal=False), st.sampled_from([0.0, -0.0])
)


def assert_same_bytes(got, want, what=""):
    assert (got is None) == (want is None), what
    if got is not None:
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


@st.composite
def linear_cases(draw):
    in_features, out_features = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = (in_features,) if draw(st.booleans()) else (draw(st.integers(1, 6)), in_features)
    x = draw(hnp.arrays(np.float64, shape, elements=FLOATS))
    upstream = [
        draw(hnp.arrays(np.float64, shape[:-1] + (out_features,), elements=FLOATS))
        for _ in range(2)
    ]
    live = draw(st.fixed_dictionaries({"x": st.booleans(), "weight": st.booleans(), "bias": st.booleans()}))
    return in_features, out_features, draw(st.booleans()), x, upstream, live, draw(st.integers(0, 2**31))


@settings(max_examples=200, deadline=None)
@given(case=linear_cases())
@example(case=(3, 2, False, np.ones(3), [np.full(2, -0.0), np.ones(2)], dict(x=True, weight=True, bias=True), 0))
@example(case=(2, 2, True, np.ones((3, 2)), [np.ones((3, 2))] * 2, dict(x=False, weight=False, bias=False), 1))
def test_linear_node_equals_composed_tape(case):
    """1-D and 2-D inputs, with and without a bias, any parameter frozen;
    the layer runs twice in one graph, so its parameters sum two gradients."""
    in_features, out_features, bias, x_data, upstream, live, seed = case

    def floats(forward):
        layer = Linear(in_features, out_features, np.random.default_rng(seed), bias=bias)
        layer.weight.requires_grad = live["weight"]
        if layer.bias is not None:
            layer.bias.requires_grad = live["bias"]
        x = Tensor(x_data, requires_grad=live["x"])
        outs = [forward(layer, x) for _ in upstream]
        total = sum(((out * Tensor(u)).sum() for out, u in zip(outs, upstream)), Tensor(0.0))
        if total.requires_grad:
            total.backward()
        grads = [x.grad] + [p.grad for p in layer.parameters()]
        return outs[0].data, grads, outs[0]

    out, grads, node = floats(lambda layer, x: layer(x))
    ref_out, ref_grads, _ = floats(lambda layer, x: linear_composed(x, layer.weight, layer.bias))
    assert_same_bytes(out, ref_out, "output")
    for got, want in zip(grads, ref_grads):
        assert_same_bytes(got, want, "gradient")
    if node.requires_grad:
        assert node._op == "linear" and len(node._parents) == (3 if bias else 2)


@st.composite
def softmax_cases(draw):
    shape = draw(st.sampled_from([(1,), (2,), (5,), (1, 1), (3, 1), (2, 4), (3, 6)]))
    scores = draw(hnp.arrays(np.float64, shape, elements=FLOATS))
    if draw(st.booleans()):  # a single feasible action
        mask = np.zeros(shape, dtype=bool)
        mask.flat[draw(st.integers(0, mask.size - 1))] = True
    else:
        mask = draw(hnp.arrays(bool, shape))
        mask.flat[draw(st.integers(0, mask.size - 1))] = True
    upstream = draw(hnp.arrays(np.float64, shape, elements=FLOATS))
    return scores, mask, upstream, draw(st.integers(0, shape[0] - 1))


@settings(max_examples=300, deadline=None)
@given(case=softmax_cases())
@example(case=(np.zeros(1), np.ones(1, dtype=bool), np.full(1, -0.0), 0))
@example(case=(np.zeros((2, 1)), np.ones((2, 1), dtype=bool), np.full((2, 1), -0.0), 1))
def test_masked_log_softmax_node_equals_composed_tape(case):
    scores_data, mask, upstream, pick = case

    def floats(op):
        scores = Tensor(scores_data, requires_grad=True)
        out = op(scores, mask)
        ((out * Tensor(upstream)).sum() + out[pick].sum()).backward()
        return out, scores.grad

    out, grad = floats(F.masked_log_softmax)
    ref_out, ref_grad = floats(masked_log_softmax_composed)
    assert_same_bytes(out.data, ref_out.data, "output")
    assert_same_bytes(grad, ref_grad, "scores.grad")
    assert out._op == "masked_log_softmax" and len(out._parents) == 1


def test_masked_log_softmax_is_a_constant_without_grad():
    out = F.masked_log_softmax(Tensor(np.arange(3.0)), np.array([True, False, True]))
    assert not out.requires_grad and out._backward is None
    ref = masked_log_softmax_composed(Tensor(np.arange(3.0)), np.array([True, False, True]))
    assert_same_bytes(out.data, ref.data)


class _ScatterSpy:
    """Stands in for ``numpy`` inside ``repro.nn.tensor``, recording ``np.add.at``."""

    def __init__(self):
        self.scatters = 0
        spy = self

        class _Add:
            @staticmethod
            def at(target, index, values):
                spy.scatters += 1
                np.add.at(target, index, values)

        self.add = _Add

    def __getattr__(self, name):
        return getattr(np, name)


INDICES = {
    "int": (2, False),
    "negative int": (-1, False),
    "numpy int": (np.int64(1), False),
    "slice": (slice(1, 3), False),
    "True": (True, True),
    "bool mask": (np.array([True, False, True, True]), True),
    "duplicate indices": (np.array([0, 3, 0, 0]), True),
}


@pytest.mark.parametrize("name", INDICES)
def test_getitem_backward_scatters_only_for_masks_and_index_arrays(name, monkeypatch):
    index, scatters = INDICES[name]
    data = np.random.default_rng(3).normal(size=(4, 3))
    upstream = np.random.default_rng(4).normal(size=data[index].shape)

    spy = _ScatterSpy()
    monkeypatch.setattr(tensor_module, "np", spy)
    x = Tensor(data, requires_grad=True)
    # Used twice: the second gradient lands on the first.
    ((x[index] * Tensor(upstream)).sum() + (x[index] * Tensor(-upstream)).sum()).backward()
    assert spy.scatters == (2 if scatters else 0)
    want = np.zeros_like(data)
    np.add.at(want, index, upstream)
    np.add.at(want, index, -upstream)
    assert_same_bytes(x.grad, want)
