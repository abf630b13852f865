"""Runs one workload segment and turns it into the named metrics.

A *segment* is: N cold set-ups, input preparation, warm-up ops, timed
ops, deferred output checks — all timed through one
:class:`~benchmarks.e2e.calibrate.Calibrator`, so every set-up step and
every op is flanked by calibration probes.  Op counts are fixed, not
time-boxed, so counts repeat exactly.

The untraced run is one segment and yields the end-to-end metrics.  The
traced run is two segments over identical inputs — one plain, one with
the layer wrappers installed — so ``harness.trace_overhead_ratio`` is a
paired, per-op ratio rather than a comparison across runs.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

from .calibrate import CAL_REF_MS, Calibrator, iqr_share, percentile
from .daemon import ROOT, Daemon, peak_rss_mb
from .trace import Tracer, installed, layer_metrics
from .workloads import WORKLOADS, CheckFailed, Workload

__all__ = [
    "BENCHMARK",
    "Segment",
    "end_to_end_metrics",
    "per_layer_metrics",
    "run_segment",
    "run_workload",
]

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

# Fixed counts, never time-boxed.  The issue's 24 warm-up + 256 timed ops
# of ~60 cal-ms take 27 s a run when this box is loud, and the driver's
# 114 runs must end within 3420 s; these take ~18 s quiet, ~24 s loud.
SETUP_REPS = 15
WARMUP_OPS = 16
TIMED_OPS = 160
TRACE_SETUP_REPS = 3
TRACE_TIMED_OPS = 72
MAX_ERRORS_KEPT = 5


@dataclass
class Segment:
    """Everything measured in one segment."""

    work_unit: str
    setup_cal_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    setup_windows: list[tuple[float, float]] = field(default_factory=list)
    op_windows: list[tuple[float, float]] = field(default_factory=list)
    op_raw_ms: list[float] = field(default_factory=list)
    op_cal_ms: list[float] = field(default_factory=list)
    work: int = 0
    slr: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: list[dict] = field(default_factory=list)
    daemon: dict = field(default_factory=dict)  # boot_ms, stats deltas, client round trips

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    @property
    def slowdown(self) -> float:
        return statistics.median(self.kernel_ms) / CAL_REF_MS


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-request handle time and batch shape between two ``stats`` replies."""
    count = after["latency_ms"]["count"] - before["latency_ms"]["count"]
    total = (
        after["latency_ms"]["mean"] * after["latency_ms"]["count"]
        - before["latency_ms"]["mean"] * before["latency_ms"]["count"]
    )
    batches = after["batches"] - before["batches"]
    return {
        "handle_ms_per_request": total / count if count else 0.0,
        "batches": batches,
        "mean_batch_size": (
            (after["batched_requests"] - before["batched_requests"]) / batches if batches else 0.0
        ),
    }


def run_segment(
    cls: type[Workload],
    seed: int,
    *,
    setups: int,
    warmup: int,
    timed: int,
    traced: bool,
    make_daemon: Callable[[bool], object] = Daemon,
) -> Segment:
    segment = Segment(cls.work_unit)
    daemon = make_daemon(traced) if cls.uses_daemon else None
    # A subprocess daemon records its own spans; everything else (the
    # in-process workloads, the smoke test's in-process server) is traced here.
    tracer = Tracer() if traced and not isinstance(daemon, Daemon) else None
    workload = None
    try:
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(installed(tracer))
            workload = cls(seed, daemon)
            calibrator = Calibrator()

            for rep in range(setups):
                cal_ms = raw_ms = 0.0

                def step(fn: Callable[[], object]) -> object:
                    nonlocal cal_ms, raw_ms
                    result, raw, cal = calibrator.timed(fn)
                    raw_ms += raw
                    cal_ms += cal
                    return result

                began = time.perf_counter()
                workload.setup(step, rep)
                segment.setup_windows.append((began, time.perf_counter()))
                segment.setup_cal_s.append(cal_ms / 1000.0)
                segment.setup_raw_s.append(raw_ms / 1000.0)

            workload.prepare(warmup + timed)
            stats_before = None
            checks = []
            for i in range(warmup + timed):
                counted = i >= warmup
                if i == warmup and daemon is not None:
                    stats_before = daemon.stats()
                try:
                    result, raw, cal = calibrator.timed(lambda: workload.op(i))
                except Exception as error:  # noqa: BLE001 - an op that raises is a failed op
                    if counted:
                        segment.attempted += 1
                        segment.fail(f"op {i} raised {error!r}")
                    continue
                if not counted:
                    continue
                segment.attempted += 1
                began = calibrator.last_start
                segment.op_windows.append((began, began + raw / 1000.0))
                segment.op_raw_ms.append(raw)
                segment.op_cal_ms.append(cal)
                segment.work += result.work
                segment.slr.append(result.slr)
                checks.append((i, result.check))
            segment.kernel_ms = calibrator.kernel_ms

            if daemon is not None:
                segment.daemon = _stats_delta(stats_before, daemon.stats())
                segment.daemon["boot_ms"] = daemon.boot_ms
                segment.daemon["round_trip_ms_per_request"] = workload.round_trip_ms()
                segment.peak_rss_mb = daemon.peak_rss_mb()
            else:
                segment.peak_rss_mb = peak_rss_mb()
            for i, check in checks:
                try:
                    check()
                except CheckFailed as error:
                    segment.fail(f"op {i} failed its check: {error}")
    finally:
        if workload is not None:
            workload.close()
        if daemon is not None:
            segment.spans = daemon.stop()
    if tracer is not None:
        segment.spans = tracer.dump()
    return segment


def _scaled(count: int, seconds: float) -> int:
    """``count`` timed ops at ``--seconds`` = ``run_seconds``, in proportion
    otherwise: the driver contract's "measure for --seconds" without a
    time box (``--compare`` refuses results taken at different values)."""
    return max(8, round(count * seconds / BENCHMARK["run_seconds"]))


def end_to_end_metrics(segment: Segment) -> dict[str, float]:
    """The six end-to-end metrics (see ``BENCHMARK.json`` for bounds)."""
    cal_s = sum(segment.op_cal_ms) / 1000.0
    return {
        "setup_s": statistics.median(segment.setup_cal_s),
        "op_cal_ms_p50": percentile(segment.op_cal_ms, 50),
        "op_cal_ms_p90": percentile(segment.op_cal_ms, 90),
        "work_per_cal_s": segment.work / cal_s,
        "peak_rss_mb": segment.peak_rss_mb,
        "placement_slr_mean": statistics.fmean(segment.slr),
    }


def per_layer_metrics(plain: Segment, traced: Segment, import_ms: float) -> dict[str, float]:
    """Every per-layer metric, from a plain and a traced segment over the
    same inputs."""
    ops = [
        (start, end, cal / raw)
        for (start, end), raw, cal in zip(traced.op_windows, traced.op_raw_ms, traced.op_cal_ms)
    ]
    metrics = layer_metrics(traced.spans, ops, traced.setup_windows)
    daemon = traced.daemon
    handle = daemon.get("handle_ms_per_request", 0.0)
    metrics.update(
        {
            "serve.server.handle_ms_per_request": handle,
            "serve.server.transport_ms_per_request": (
                daemon["round_trip_ms_per_request"] - handle if daemon else 0.0
            ),
            "serve.server.boot_ms": daemon.get("boot_ms", 0.0),
            "serve.batcher.batches": daemon.get("batches", 0),
            "serve.batcher.mean_batch_size": daemon.get("mean_batch_size", 0.0),
            "harness.calib_ms_p50": statistics.median(traced.kernel_ms),
            "harness.slowdown": traced.slowdown,
            "harness.op_raw_ms_p50": percentile(traced.op_raw_ms, 50),
            "harness.op_cal_iqr_share": iqr_share(traced.op_cal_ms),
            "harness.import_ms": import_ms,
            # Paired by op: both segments ran the same inputs in the same order.
            "harness.trace_overhead_ratio": statistics.median(
                t / p for t, p in zip(traced.op_cal_ms, plain.op_cal_ms)
            ),
        }
    )
    return metrics


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_ms: float = 0.0,
) -> dict:
    """Run one workload; returns the result record the command prints.

    ``metrics`` holds the end-to-end metrics of an untraced run or the
    per-layer metrics of a traced one; ``noise`` is the report a reader
    needs to tell a loud machine from a slow program.
    """
    cls = WORKLOADS[name]
    if trace:
        shape = dict(setups=TRACE_SETUP_REPS, warmup=WARMUP_OPS,
                     timed=_scaled(TRACE_TIMED_OPS, seconds))
        plain = run_segment(cls, seed, traced=False, **shape)
        segment = run_segment(cls, seed, traced=True, **shape)
        segments = [plain, segment]
    else:
        segment = run_segment(
            cls, seed, setups=SETUP_REPS, warmup=WARMUP_OPS,
            timed=_scaled(TIMED_OPS, seconds), traced=False,
        )
        segments = [segment]
    for s in segments:
        if not s.op_cal_ms:
            raise RuntimeError(f"{name}: no op completed: {s.errors}")
    failed = sum(s.failed for s in segments)
    values = per_layer_metrics(plain, segment, import_ms) if trace else end_to_end_metrics(segment)
    return {
        "workload": name,
        "seed": seed,
        "correct": failed == 0,
        "attempted": sum(s.attempted for s in segments),
        "failed": failed,
        "errors": [e for s in segments for e in s.errors],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        "noise": {
            "harness.slowdown": segment.slowdown,
            "harness.op_cal_iqr_share": iqr_share(segment.op_cal_ms),
            "harness.op_raw_iqr_share": iqr_share(segment.op_raw_ms),
            "harness.op_raw_ms_p50": percentile(segment.op_raw_ms, 50),
            "harness.setup_raw_s": statistics.median(segment.setup_raw_s),
            "timed_ops": len(segment.op_cal_ms),
            "work_unit": segment.work_unit,
        },
    }
