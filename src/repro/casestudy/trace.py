"""Trace extraction: traffic simulation -> placement cases (paper §5.3).

"We evaluate GiPH and other search-based policies on over 900 placement
cases that are extracted from the application trace."  This module runs
the mobility model, walks every (snapshot, intersection) pair with at
least one interacting CAV, and yields the corresponding scenarios.

Cold extractions can fan contiguous snapshot windows across processes
(:func:`extract_trace_windowed`).  This is sound because the walk is a
pure function of ``(config, stream)``: :class:`TrafficSimulation`
consumes all of its randomness in ``__init__`` and ``snapshot(t)`` is a
pure lookup, so every worker can rebuild the identical simulated world
from the seed stream and evaluate its own slice of the snapshot times.
The windowed walk is bit-identical to the serial one (pinned by
``tests/casestudy/test_trace_parallel.py``), which is what lets the
cached entry point share one cache key for both.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..parallel import (
    ExecutionBackend,
    ExecutionBackendError,
    InlineBackend,
    get_context,
)
from ..store import CorruptEntryError, active_store, fingerprint
from ..telemetry import log
from .devicemodel import LatencyFit, fit_latency_model
from .pipeline import CaseStudyScenario, EdgeDeviceLayout, PipelineConfig, SensorFusionBuilder
from .traffic import TrafficConfig, TrafficSimulation, TrafficSnapshot

__all__ = [
    "TraceConfig",
    "extract_trace",
    "extract_trace_windowed",
    "extract_trace_cached",
    "trace_key",
]


@dataclass(frozen=True)
class TraceConfig:
    """End-to-end configuration of the case-study trace extraction."""

    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    max_cases: int | None = None  # stop after this many scenarios
    max_cavs_per_case: int = 6  # cap pipeline width to keep cases tractable


def _build_world(
    config: TraceConfig, rng: np.random.Generator, fit: LatencyFit
) -> tuple[TrafficSimulation, SensorFusionBuilder]:
    """Deterministically rebuild the simulated world from ``rng``.

    Consumes the generator in a fixed order (simulation first, then the
    device layout) so the serial walk and every window worker derive the
    identical world from equal seed streams.
    """
    sim = TrafficSimulation(config.traffic, rng)
    area = (
        (config.traffic.grid_cols - 1) * config.traffic.block_meters,
        (config.traffic.grid_rows - 1) * config.traffic.block_meters,
    )
    layout = EdgeDeviceLayout.random(config.pipeline, area, rng)
    builder = SensorFusionBuilder(
        fit, config.pipeline, layout, interaction_radius_m=config.traffic.interaction_radius_m
    )
    return sim, builder


def _scan_snapshot(
    sim: TrafficSimulation,
    builder: SensorFusionBuilder,
    config: TraceConfig,
    snapshot: TrafficSnapshot,
) -> list[CaseStudyScenario]:
    """All scenarios of one snapshot, in intersection order.

    Pure given its arguments (``build_scenario`` draws no randomness),
    so the trace is the concatenation of per-snapshot scans in time
    order — the invariant the windowed extraction rests on.
    """
    scenarios: list[CaseStudyScenario] = []
    for intersection in sim.intersections:
        cavs = snapshot.cavs_near(intersection, config.traffic.interaction_radius_m)
        if not cavs:
            continue
        if len(cavs) > config.max_cavs_per_case:
            # Keep the nearest CAVs; wide intersections otherwise blow
            # up the pipeline (the paper's RSUs plan per-approach).
            ix, iy = intersection.position
            nearest = sorted(
                cavs,
                key=lambda v: (v.position[0] - ix) ** 2 + (v.position[1] - iy) ** 2,
            )[: config.max_cavs_per_case]
            snapshot_slice = TrafficSnapshot(snapshot.time_s, tuple(nearest))
        else:
            snapshot_slice = snapshot
        scenario = builder.build_scenario(snapshot_slice, intersection)
        if scenario is not None:
            scenarios.append(scenario)
    return scenarios


def extract_trace(
    config: TraceConfig, rng: np.random.Generator, fit: LatencyFit | None = None
) -> list[CaseStudyScenario]:
    """Simulate traffic and extract one scenario per active intersection
    per snapshot."""
    fit = fit or fit_latency_model()
    sim, builder = _build_world(config, rng, fit)

    scenarios: list[CaseStudyScenario] = []
    for snapshot in sim.snapshots():
        scenarios.extend(_scan_snapshot(sim, builder, config, snapshot))
        if config.max_cases is not None and len(scenarios) >= config.max_cases:
            return scenarios[: config.max_cases]
    return scenarios


@dataclass(frozen=True)
class _WindowContext:
    """Broadcast state of a windowed extraction (one pickle per pool).

    The seed ``stream`` travels instead of a generator because every
    worker must rebuild the world from the stream's *initial* state.
    """

    config: TraceConfig
    stream: tuple[int, ...]


def _extract_window(window: tuple[int, int]) -> list[CaseStudyScenario]:
    """Worker: scenarios of snapshot-index window ``[start, stop)``."""
    ctx: _WindowContext = get_context()
    config = ctx.config
    rng = np.random.default_rng(list(ctx.stream))
    sim, builder = _build_world(config, rng, fit_latency_model())
    times = config.traffic.snapshot_times()[window[0] : window[1]]
    scenarios: list[CaseStudyScenario] = []
    for t in times:
        scenarios.extend(_scan_snapshot(sim, builder, config, sim.snapshot(float(t))))
        if config.max_cases is not None and len(scenarios) >= config.max_cases:
            # Any scenario beyond the cap already has >= max_cases
            # predecessors within this window alone, so it cannot be
            # among the first max_cases of the merged trace either —
            # truncating here loses nothing the serial walk would keep.
            return scenarios[: config.max_cases]
    return scenarios


def extract_trace_windowed(
    config: TraceConfig,
    stream: Sequence[int],
    backend: ExecutionBackend | None = None,
    num_windows: int | None = None,
) -> list[CaseStudyScenario]:
    """Window-parallel :func:`extract_trace`, bit-identical to serial.

    Splits the snapshot times into ``num_windows`` (default: one per
    worker) contiguous windows and fans them over ``backend``.  Each
    worker rebuilds the simulated world from
    ``default_rng(list(stream))`` — cheap next to the snapshot walk —
    and scans only its own window; windows merge in time order and
    truncate to ``config.max_cases``, reproducing the serial early-stop
    exactly.

    Only direct-execution backends are accepted: a store-conditional
    backend (shard/merge) would skip fan-out legs whose cells exist,
    desynchronizing the positional window merge.
    """
    backend = backend or InlineBackend()
    if backend.name not in ("inline", "fork"):
        raise ExecutionBackendError(
            f"trace windows need a direct-execution backend, got {backend.name!r}; "
            "pass the executor beneath it (backend.direct()) instead"
        )
    times = config.traffic.snapshot_times()
    if num_windows is None:
        num_windows = max(1, min(len(times), backend.workers))
    bounds = np.linspace(0, len(times), num_windows + 1).astype(int)
    windows = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    context = _WindowContext(config, tuple(int(s) for s in stream))
    chunks = backend.fanout(_extract_window, windows, context)
    scenarios = [scenario for chunk in chunks for scenario in chunk]
    if config.max_cases is not None:
        scenarios = scenarios[: config.max_cases]
    return scenarios


def trace_key(config: TraceConfig, stream: Sequence[int]) -> dict:
    """Cache key of one trace extraction: full config + seed stream.

    The extraction is a pure function of ``(config, stream)`` — the
    traffic simulation, the edge-device layout, and the scenario walk
    all draw exclusively from ``default_rng(list(stream))`` — which is
    what makes memoizing it sound.
    """
    return {
        "kind": "case-study-trace",
        "config": dataclasses.asdict(config),
        "stream": list(stream),
    }


# In-process memo: trace fingerprint -> scenario list.  Small LRU — a
# session touches a handful of (scale, stream) combinations at most.
_MEMO_MAX = 8
_MEMO: OrderedDict[str, list[CaseStudyScenario]] = OrderedDict()


def extract_trace_cached(
    config: TraceConfig,
    stream: Sequence[int],
    backend: ExecutionBackend | None = None,
) -> tuple[list[CaseStudyScenario], str]:
    """Memoized :func:`extract_trace` keyed by ``(config, stream)``.

    Returns ``(scenarios, source)`` where ``source`` is ``"memory"``
    (in-process memo), ``"store"`` (the process-wide
    :func:`repro.store.active_store` — how shard runs and repeated CLI
    invocations share one extraction), or ``"extracted"`` (computed here
    and published to both cache layers).  fig9 and fig11 used to run
    this simulation three times between them per (scale, seed); routed
    through here they pay for each distinct stream once per store.

    Callers must treat the returned scenarios as read-only: the memo
    hands the same objects to every in-process caller (exactly like the
    shared dataset objects the experiment harness already broadcasts).

    Every extraction uses the one :func:`fit_latency_model`, so the
    fit is not part of the cache key.

    Cold extractions run :func:`extract_trace_windowed` on the direct
    executor beneath ``backend`` (a shard's inner backend; inline for a
    merge), so within-shard parallelism reaches the snapshot walk.  The
    windowed walk is bit-identical to the serial one, so the backend
    never enters the cache key — a serial run and a parallel run publish
    interchangeable entries.
    """
    direct = (backend or InlineBackend()).direct()
    key = trace_key(config, stream)
    address = fingerprint(key)
    store = active_store()
    if address in _MEMO:
        _MEMO.move_to_end(address)
        if store is not None:
            # Publish memory-cached extractions too: a trace first
            # extracted before the store was installed (or by a plain
            # run sharing this process) must still reach shard peers
            # and the merge pass.
            store.save("trace", key, _MEMO[address])
        return _MEMO[address], "memory"

    source = "extracted"
    scenarios: list[CaseStudyScenario] | None = None
    if store is not None and store.has("trace", key):
        try:
            scenarios = store.load("trace", key)
            source = "store"
        except CorruptEntryError as error:  # moved aside: extract and republish
            log.warn(f"{error}; extracting the trace again")
    if scenarios is None:
        scenarios = extract_trace_windowed(config, stream, backend=direct)
        if store is not None:
            store.save("trace", key, scenarios)
    _MEMO[address] = scenarios
    while len(_MEMO) > _MEMO_MAX:
        _MEMO.popitem(last=False)
    return scenarios, source
