"""Feed-forward building blocks: Linear, MLP, Sequential.

The paper's networks are small feed-forward stacks (Table 5): two-layer
pre-embedding FNNs, single-layer message/aggregation FNNs, and a
10->16->1 policy MLP, all with ReLU activations.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor

__all__ = ["Linear", "MLP", "Sequential", "Activation"]

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda x: x.relu(),
    "identity": lambda x: x,
}


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.he_uniform(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        """One tape node with :func:`~repro.nn.functional.linear`'s VJP, but
        the BLAS ``x @ W``, not its row-invariant einsum."""
        return F._affine(x, self.weight, self.bias, x.data @ self.weight.data)


class Activation(Module):
    """Named activation wrapper so it can live in a Sequential."""

    def __init__(self, name: str) -> None:
        if name not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}")
        self.name = name

    def forward(self, x: Tensor) -> Tensor:
        return _ACTIVATIONS[self.name](x)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


class MLP(Module):
    """Multi-layer perceptron: ReLU after every layer but the last, which is linear.

    ``MLP([10, 16, 1])`` is the paper's policy score function g(.).
    """

    def __init__(self, dims: Sequence[int], rng: np.random.Generator) -> None:
        if len(dims) < 2:
            raise ValueError("MLP needs at least an input and an output dimension")
        self.dims = tuple(dims)
        layers: list[Module] = []
        for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layers.append(Linear(d_in, d_out, rng))
            layers.append(Activation("identity" if i == len(dims) - 2 else "relu"))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
