"""Calibrated time: a machine-speed probe run around every timed interval.

This box's effective speed drifts by 10-30% on a sub-second scale, in
wall clock *and* CPU time, so raw timings of identical code cannot
resolve a 5% change.  The fix is a small, fixed piece of work — the
calibration kernel — executed immediately before and after every timed
interval.  The interval's **calibrated time** is

    raw_ms * CAL_REF_MS / mean(flanking kernel ms)

i.e. the time the interval would have taken had the machine run at the
speed at which the kernel takes ``CAL_REF_MS``.  On a quiet machine
cal-ms ~= ms.

The kernel mirrors the cost profile of the code under test: about two
thirds small-array NumPy dispatch (``einsum`` / ``maximum`` / ``add.at``
on <= 64x16 arrays driven from a Python loop — the GNN sweep's shape) and
one third pure-Python object work (slotted objects, dict/tuple churn,
``sorted`` with a key — the event simulator's shape).  A NumPy-only
kernel under-corrects under contention and a pure-Python one
over-corrects; the mix tracks a GiPH search op within ~2%.

This module imports nothing from ``repro``: the yardstick must not move
when the program does.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "CAL_REF_MS",
    "Calibrator",
    "calibration_kernel",
    "iqr_share",
    "percentile",
]

#: Kernel time on this box when quiet, fixed when the benchmark was
#: written (lower quartile of 2000 runs).  Only a scale: changing it
#: rescales every calibrated metric by the same factor.
CAL_REF_MS = 8.0

_NUMPY_ROUNDS = 160
_PYTHON_ITEMS = 2400

#: Two timed intervals this close together share the probe between them.
_REUSE_S = 0.001


class _Event:
    """Slotted record, shaped like the simulator's heap entries."""

    __slots__ = ("time", "seq", "task", "device")

    def __init__(self, time_: float, seq: int, task: int, device: int) -> None:
        self.time = time_
        self.seq = seq
        self.task = task
        self.device = device


def _numpy_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    rows = np.arange(64 * 16, dtype=np.float64).reshape(64, 16)
    x = np.sin(rows * 0.37)
    w = np.cos(np.arange(16 * 16, dtype=np.float64).reshape(16, 16) * 0.11)
    bias = np.linspace(-0.5, 0.5, 16)
    segments = (np.arange(64) * 7) % 24
    return x, w, bias, segments


_X, _W, _BIAS, _SEGMENTS = _numpy_inputs()


def calibration_kernel() -> float:
    """Run the fixed calibration work once; returns its checksum.

    Deterministic: no clock, no randomness, no state carried between
    calls — the checksum is the same on every call on every machine with
    the same NumPy.
    """
    # Small-array NumPy dispatch from a Python loop (GNN-sweep shaped).
    h = _X
    acc = np.zeros((24, 16))
    for _ in range(_NUMPY_ROUNDS):
        h = np.maximum(np.einsum("ij,jk->ik", h, _W) * 0.25 + _BIAS, 0.0)
        acc[:] = 0.0
        np.add.at(acc, _SEGMENTS, h)
        h = h * 0.5 + acc[_SEGMENTS] * 0.125
    checksum = float(h.sum())

    # Pure-Python object work (event-simulator shaped).
    events = [
        _Event(((i * 2654435761) % 1009) / 7.0, i, i % 48, (i * 5) % 12)
        for i in range(_PYTHON_ITEMS)
    ]
    by_device: dict[int, list[tuple[int, float]]] = {}
    for event in events:
        by_device.setdefault(event.device, []).append((event.task, event.time))
    ordered = sorted(events, key=lambda e: (e.time, e.seq))
    finish: dict[tuple[int, int], float] = {}
    clock = 0.0
    for event in ordered:
        clock = max(clock, event.time) + 0.5
        finish[(event.task, event.device)] = clock
    checksum += clock + sum(len(v) for v in by_device.values()) + len(finish)
    return checksum


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(len(ordered) * q / 100)))
    return float(ordered[rank - 1])


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (the spread the
    acceptance rule uses); 0 for samples too small to have quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


class Calibrator:
    """Times intervals in calibrated milliseconds.

    Every :meth:`timed` call is flanked by two kernel runs.  Consecutive
    intervals share the kernel run between them when they follow each
    other within a millisecond (the trailing probe of one interval is
    the leading probe of the next), which halves the probe overhead of a
    tight op loop without widening the flank.
    """

    def __init__(self) -> None:
        self.kernel_ms: list[float] = []  # every probe taken, in order
        self._last_probe_ms = 0.0
        self._last_probe_end = float("-inf")
        self.last_start = 0.0  # perf_counter when the last timed fn began
        self._checksum = calibration_kernel()  # also warms the kernel

    def _probe(self) -> float:
        began = time.perf_counter()
        checksum = calibration_kernel()
        ended = time.perf_counter()
        if checksum != self._checksum:
            raise RuntimeError("calibration kernel is not deterministic")
        self._last_probe_ms = (ended - began) * 1000.0
        self._last_probe_end = ended
        self.kernel_ms.append(self._last_probe_ms)
        return self._last_probe_ms

    def timed(self, fn: Callable[[], object]) -> tuple[object, float, float]:
        """Run ``fn``; returns ``(result, raw_ms, calibrated_ms)``.

        An exception from ``fn`` propagates after the trailing probe is
        skipped; the caller counts the interval as failed.
        """
        if time.perf_counter() - self._last_probe_end <= _REUSE_S:
            before = self._last_probe_ms
        else:
            before = self._probe()
        self.last_start = began = time.perf_counter()
        result = fn()
        raw_ms = (time.perf_counter() - began) * 1000.0
        after = self._probe()
        return result, raw_ms, raw_ms * CAL_REF_MS / ((before + after) / 2.0)

    @property
    def slowdown(self) -> float:
        """Median probe time over ``CAL_REF_MS``: > 1 is a loud machine."""
        return statistics.median(self.kernel_ms) / CAL_REF_MS if self.kernel_ms else 1.0
