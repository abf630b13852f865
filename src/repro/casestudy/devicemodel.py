"""Case-study latency model: fit C_i·T_j + S_j = µ_ij (paper §B.4).

The paper defines an average compute requirement C per task and a pair
of compute features (T, S) per device type — T is ms per unit of
compute, S the startup time — fit so the model reproduces Table 1's
measured means.  The bilinear system is solved with ``scipy``'s bounded
least squares; C_camera anchors the (scale-invariant) compute unit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .measurements import DEVICE_TYPES, TABLE1_MEAN_MS, TASK_KINDS

__all__ = ["LatencyFit", "fit_latency_model"]


@dataclass(frozen=True)
class LatencyFit:
    """Fitted per-task compute requirements and per-type device features.

    ``compute[kind]`` = C_i; ``unit_time[type]`` = T_j (ms per compute
    unit); ``startup[type]`` = S_j (ms).
    """

    compute: dict[str, float]
    unit_time: dict[str, float]
    startup: dict[str, float]

    def predicted_ms(self, kind: str, device_type: str) -> float:
        """Model runtime µ̂_ij = C_i·T_j + S_j."""
        return self.compute[kind] * self.unit_time[device_type] + self.startup[device_type]

    def relative_rms_error(self) -> float:
        """Fit quality against Table 1 (relative RMS over all 12 cells)."""
        errs = [
            (self.predicted_ms(k, t) - TABLE1_MEAN_MS[k][t]) / TABLE1_MEAN_MS[k][t]
            for k in TASK_KINDS
            for t in DEVICE_TYPES
        ]
        return float(np.sqrt(np.mean(np.square(errs))))


@functools.cache
def fit_latency_model() -> LatencyFit:
    """Fit (C, T, S) to Table 1 by bounded nonlinear least squares, once
    per process (callers must treat the fit as read-only).

    C_camera = 50 pins the compute unit, removing the C·T scale degeneracy.
    Residuals are relative (each cell weighted by 1/µ_ij) so the
    millisecond-scale Type-C column isn't drowned out by the 250 ms
    RSU-fusion cells.
    """
    anchor = 50.0
    n_tasks, n_types = len(TASK_KINDS), len(DEVICE_TYPES)
    mu = np.array([[TABLE1_MEAN_MS[k][t] for t in DEVICE_TYPES] for k in TASK_KINDS])

    def unpack(x):
        compute = np.concatenate([[anchor], x[: n_tasks - 1]])
        unit = x[n_tasks - 1 : n_tasks - 1 + n_types]
        startup = x[n_tasks - 1 + n_types :]
        return compute, unit, startup

    def residuals(x):
        compute, unit, startup = unpack(x)
        pred = np.outer(compute, unit) + startup[None, :]
        return ((pred - mu) / mu).ravel()

    x0 = np.concatenate(
        [
            np.full(n_tasks - 1, anchor),
            np.full(n_types, mu.mean() / anchor),
            np.full(n_types, 1.0),
        ]
    )
    lower = np.concatenate(
        [np.full(n_tasks - 1, 1e-6), np.full(n_types, 1e-9), np.zeros(n_types)]
    )
    result = least_squares(residuals, x0, bounds=(lower, np.inf))
    compute, unit, startup = unpack(result.x)
    return LatencyFit(
        compute=dict(zip(TASK_KINDS, compute.tolist())),
        unit_time=dict(zip(DEVICE_TYPES, unit.tolist())),
        startup=dict(zip(DEVICE_TYPES, startup.tolist())),
    )
