"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the substrate that replaces PyTorch in this reproduction:
a small, well-tested autograd engine sufficient for the GNNs, MLPs and
LSTMs used by GiPH and its baselines.

Design notes
------------
* A :class:`Tensor` wraps an ``np.ndarray`` and records the operation that
  produced it (parents + a backward closure).  Calling :meth:`Tensor.backward`
  runs a topological sweep accumulating gradients into ``.grad``.
* Broadcasting is supported for elementwise ops; gradients are un-broadcast
  by summing over the broadcast axes (see :func:`_unbroadcast`).
* Only float64 is used.  The workloads here are small (embedding dims of
  5-40), so clarity wins over micro-optimization, per the project style
  guide.  Hot paths (message passing) batch nodes into level-wise matrices
  so the heavy lifting stays inside NumPy.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (inference mode)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy array with reverse-mode autodiff support."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")
    __array_priority__ = 100  # so np scalars defer to our __r*__ methods

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
        _op: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = tuple(_parents) if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None
        self._op = _op

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    # -- graph plumbing -----------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        needs = False
        if _GRAD_ENABLED:
            for p in parents:
                if p.requires_grad:
                    needs = True
                    break
        return Tensor(data, requires_grad=needs, _parents=parents, _backward=backward, _op=op)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape == self.data.shape:
                # First touch: copy instead of zeros + add (saves a full
                # memory pass per graph node; 0 + g == g bitwise for
                # every finite g).
                self.grad = grad.copy()
                return
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to 1 for scalar outputs (the usual loss case).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be supplied for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological ordering of the subgraph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic ----------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward, "add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward, "div")

    # -- reductions -----------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = np.prod([self.shape[a] for a in np.atleast_1d(axis)])
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    # -- shape ops -------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._make(out_data, (self,), backward, "reshape")

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # Scatter straight into the grad buffer — no dense
                # temporary per gather (the GNN backward runs thousands
                # of these).
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                # Distinct elements, where a plain add is ``np.add.at``'s floats.
                # A ``bool`` is an ``int``, but NumPy reads ``True`` as a mask.
                if isinstance(idx, slice) or (
                    isinstance(idx, (int, np.integer)) and not isinstance(idx, bool)
                ):
                    self.grad[idx] += grad
                else:
                    np.add.at(self.grad, idx, grad)

        return Tensor._make(out_data, (self,), backward, "getitem")

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other) -> "Tensor":
        other = as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            # Four cases by operand dimensionality (1D vectors vs 2D matrices).
            if self.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    self._accumulate(grad * b)
                elif b.ndim == 1:  # (m,n) @ (n,) -> (m,)
                    self._accumulate(np.outer(grad, b))
                else:  # (n,)|(m,n) @ (n,p): grad @ b.T works for both
                    self._accumulate(grad @ b.T)
            if other.requires_grad:
                if a.ndim == 1 and b.ndim == 1:
                    other._accumulate(grad * a)
                elif a.ndim == 1:  # (n,) @ (n,p) -> (p,)
                    other._accumulate(np.outer(a, grad))
                else:  # (m,n) @ (n,)|(n,p): a.T @ grad works for both
                    other._accumulate(a.T @ grad)

        return Tensor._make(out_data, (self, other), backward, "matmul")

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    # -- nonlinearities -----------------------------------------------------------

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward, "relu")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward, "sigmoid")

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -700.0, 700.0))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward, "log")


def as_tensor(value) -> Tensor:
    """Coerce scalars/arrays to a (non-grad) :class:`Tensor`."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, ts, backward, "concat")


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    ts = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in ts], axis=axis)

    def backward(grad: np.ndarray) -> None:
        for i, t in enumerate(ts):
            if t.requires_grad:
                t._accumulate(np.take(grad, i, axis=axis))

    return Tensor._make(out_data, ts, backward, "stack")
