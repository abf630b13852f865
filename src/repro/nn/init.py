"""Weight initialization schemes."""

from __future__ import annotations

import numpy as np

__all__ = ["glorot_uniform", "he_uniform", "orthogonal"]


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform — default for tanh/sigmoid layers."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """He uniform — default for ReLU layers (the paper uses ReLU throughout)."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def orthogonal(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Orthogonal init — used for LSTM recurrent weights."""
    a = rng.standard_normal((fan_in, fan_out))
    q, r = np.linalg.qr(a if fan_in >= fan_out else a.T)
    q = q * np.sign(np.diag(r))
    return q if fan_in >= fan_out else q.T
