"""Outside-in layer trace: benchmark-owned spans around public entry points.

The ``--trace`` run wraps each layer's public entry points *from this
file* (nothing under ``src/`` changes), records one span per call in
memory — ``[name, start, end, parent, thread, extra]`` — and derives the
per-layer metrics when the run ends.  A span's name is
``<layer>/<entry point>``; its op is the timed op whose interval
contains its start (``time.perf_counter`` is ``CLOCK_MONOTONIC``, one
clock for the benchmark process and the daemon), so spans recorded
inside the daemon join the client's ops without any protocol change.

A layer's **self time** is its spans' duration minus the part covered
by their direct child spans, so layers add up to the time under any
span and ``harness.unattributed_share`` is what no layer claims.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import sys
import threading
import time
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Tracer", "install_wrappers", "installed", "layer_metrics", "self_times"]

NAME, START, END, PARENT, THREAD, EXTRA = range(6)


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()

    def begin(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident(), None]
        stack.append(record)
        self.spans.append(record)  # list.append is atomic under the GIL
        record[START] = time.perf_counter()
        return record

    def end(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._local.stack.pop()

    def dump(self) -> list[dict]:
        """Spans as JSON-safe dicts, parents as indices (``None`` = root)."""
        # A span still open at dump time has no duration: leave it out.
        finished = [record for record in self.spans if record[END]]
        index = {id(record): i for i, record in enumerate(finished)}
        return [
            {
                "name": r[NAME],
                "start": r[START],
                "end": r[END],
                "parent": index.get(id(r[PARENT])),
                "thread": r[THREAD],
                "extra": r[EXTRA],
            }
            for r in finished
        ]


# -- wrapping ---------------------------------------------------------------------

Hook = Callable[..., Any]


def _spanned(tracer: Tracer, name: str, fn: Callable, before: Hook | None = None,
             after: Hook | None = None) -> Callable:
    """``fn`` under a span; ``after(token, result, *args)`` may attach an
    ``extra`` value computed from ``before(*args)``'s token and the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(*args) if before is not None else None
        record = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(record)
        if after is not None:
            record[EXTRA] = after(token, result, *args)
        return result

    return wrapper


class _Patches:
    """Reversible ``setattr`` patches."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, bool, Any]] = []

    def attribute(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, own, original))
        setattr(owner, attr, make(original))

    def function(self, original: Callable, make: Callable[[Callable], Callable]) -> None:
        """Replace a module-level function everywhere ``repro`` bound it
        (``from x import f`` copies the reference into the importer)."""
        wrapper = make(original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, True, original))
                    setattr(module, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, own, original in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install_wrappers(tracer: Tracer) -> _Patches:
    """Wrap every layer's public entry points; returns the undo handle."""
    import repro.experiments.runner as runner_module
    from repro.baselines.base import AdaptivePolicy
    from repro.core.env import PlacementEnv
    from repro.core.features import GpNetBuilder
    from repro.core.gnn import GpNetEmbedding
    from repro.core.policy import ScorePolicy
    from repro.nn.module import Module
    from repro.nn.optim import Adam, Optimizer
    from repro.nn.tensor import Tensor
    from repro.parallel.backends import ExecutionBackend
    from repro.runtime.evaluator import PlacementEvaluator
    from repro.runtime.fastsim import FastSimulator
    from repro.scenarios.events import materialize
    from repro.serve import protocol
    from repro.serve.batcher import RequestBatcher
    from repro.serve.server import PlacementServer
    from repro.serve.session import PlacementSession
    from repro.sim.executor import simulate

    patches = _Patches()

    def method(owner: type, attr: str, name: str, **hooks: Hook) -> None:
        patches.attribute(owner, attr, lambda fn: _spanned(tracer, name, fn, **hooks))

    method(GpNetBuilder, "build", "core.features/build")
    method(GpNetBuilder, "update", "core.features/update")
    # Module.__call__ serves every network; the span belongs to gpNet
    # embeddings only, so the subclass gets its own wrapped copy.
    patches.attribute(
        GpNetEmbedding, "__call__",
        lambda _: _spanned(tracer, "core.gnn/forward", Module.__call__),
    )
    method(ScorePolicy, "sample", "core.policy/sample")

    # Improving steps: a step that lowers the episode's best-so-far value.
    def after_reset(_, state, env, *args):
        env._e2e_best = state.objective_value

    def after_step(_, result, env, *args):
        value = result[0].objective_value
        improved = value < env._e2e_best
        if improved:
            env._e2e_best = value
        return int(improved)

    method(PlacementEnv, "reset", "core.env/reset", after=after_reset)
    method(PlacementEnv, "step", "core.env/step", after=after_step)

    method(Tensor, "backward", "nn.autograd/backward")
    method(Optimizer, "zero_grad", "nn.optim/zero_grad")
    method(Optimizer, "clip_grad_norm", "nn.optim/clip_grad_norm")
    method(Adam, "step", "nn.optim/step")

    # Cache economics at the boundary where lookups happen: the delta of
    # the evaluator's own hit/miss counters across each scoring call.
    def lookups_before(evaluator, *args):
        stats = evaluator.stats
        return stats.cache_hits, stats.cache_misses

    def lookups_after(token, _, evaluator, *args):
        stats = evaluator.stats
        hits = stats.cache_hits - token[0]
        return [hits, hits + stats.cache_misses - token[1]]

    for attr in ("evaluate", "evaluate_many"):
        method(PlacementEvaluator, attr, f"runtime.evaluator/{attr}",
               before=lookups_before, after=lookups_after)
    method(PlacementEvaluator, "timeline", "runtime.evaluator/timeline")
    method(FastSimulator, "run", "runtime.fastsim/run")
    patches.function(simulate, lambda fn: _spanned(tracer, "sim/simulate", fn))

    for cls in (AdaptivePolicy, *_subclasses(AdaptivePolicy)):
        for attr in ("search", "adapt"):
            if attr in vars(cls):
                method(cls, attr, f"baselines/{attr}")
    patches.attribute(
        runner_module, "evaluate_policies",
        lambda fn: _spanned(tracer, "experiments.runner/evaluate_policies", fn),
    )
    # Not public, but it is the runner's half of the fan-out: without it
    # the per-case work would read as self time of parallel.backends.
    patches.attribute(
        runner_module, "_evaluate_case",
        lambda fn: _spanned(tracer, "experiments.runner/evaluate_case", fn),
    )
    for cls in _subclasses(ExecutionBackend):
        if "fanout" in vars(cls):
            method(cls, "fanout", "parallel.backends/fanout")

    patches.function(materialize, lambda fn: _spanned(tracer, "scenarios/materialize", fn))

    patches.function(
        protocol.encode_message,
        lambda fn: _spanned(tracer, "serve.protocol/encode", fn,
                            after=lambda _, data, *args: len(data)),
    )
    patches.function(
        protocol.decode_message,
        lambda fn: _spanned(tracer, "serve.protocol/decode", fn,
                            after=lambda _, message, line: len(line)),
    )
    method(PlacementServer, "_serve_request", "serve.server/request")
    method(PlacementSession, "__init__", "serve.session/open")
    method(PlacementSession, "step", "serve.session/step")
    method(RequestBatcher, "submit_many", "serve.batcher/submit_many")
    return patches


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrappers installed for the duration of the block."""
    patches = install_wrappers(tracer)
    try:
        yield tracer
    finally:
        patches.undo()


# -- analysis ---------------------------------------------------------------------


def self_times(spans: Sequence[dict]) -> list[float]:
    """Per-span self time in ms: duration minus direct children's durations."""
    own = [(span["end"] - span["start"]) * 1000.0 for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            own[parent] -= (span["end"] - span["start"]) * 1000.0
    return own


def _union_ms(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total * 1000.0


def layer_metrics(
    spans: Sequence[dict],
    ops: Sequence[tuple[float, float, float]],
    setups: Sequence[tuple[float, float]] = (),
) -> dict[str, float]:
    """Per-layer metrics of the spans that started inside a timed op.

    ``ops`` are the timed ops as ``(start, end, cal_factor)`` with
    ``cal_factor`` = calibrated / raw time of that op, applied to every
    span of the op so layer times are in the same calibrated ms as the
    end-to-end metrics.  ``setups`` are the set-up windows, used only
    for ``scenarios.materialize_*`` (materialisation is a set-up cost).
    """
    starts = [op[0] for op in ops]

    def op_of(span: dict) -> int:
        i = bisect.bisect_right(starts, span["start"]) - 1
        return i if i >= 0 and span["start"] <= ops[i][1] else -1

    own = self_times(spans)
    num_ops = max(1, len(ops))
    layer_self: dict[str, float] = {}
    calls: dict[str, int] = {}
    extras: dict[str, list] = {}
    roots: dict[int, list[tuple[float, float]]] = {}
    timed: list[dict] = []
    for span, self_ms in zip(spans, own):
        i = op_of(span)
        if i < 0:
            continue
        timed.append(span)
        name = span["name"]
        layer = name.split("/")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_ms * ops[i][2]
        calls[name] = calls.get(name, 0) + 1
        if span["extra"] is not None:
            extras.setdefault(name, []).append(span["extra"])
        if span["parent"] is None:
            roots.setdefault(i, []).append((span["start"], min(span["end"], ops[i][1])))

    def per_op(layer: str) -> float:
        return layer_self.get(layer, 0.0) / num_ops

    def count(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    lookups = [e for n in ("runtime.evaluator/evaluate", "runtime.evaluator/evaluate_many")
               for e in extras.get(n, [])]
    hits = sum(e[0] for e in lookups)
    looked_up = sum(e[1] for e in lookups)
    steps = extras.get("core.env/step", [])
    forwards = count("core.gnn/forward")

    # Batcher wait: time a request sat in submit_many while the drain
    # thread was *not* evaluating (queueing + the coalescing window).
    submits = [s for s in timed if s["name"] == "serve.batcher/submit_many"]
    evaluations = [s for s in timed if s["name"] == "runtime.evaluator/evaluate_many"]
    waited = 0.0
    for submit in submits:
        busy = sum(
            max(0.0, min(submit["end"], e["end"]) - max(submit["start"], e["start"]))
            for e in evaluations
            if e["thread"] != submit["thread"]
        )
        waited += (submit["end"] - submit["start"] - busy) * 1000.0

    in_setup = [
        s for s in spans
        if s["name"] == "scenarios/materialize"
        and any(a <= s["start"] <= b for a, b in setups)
    ]
    materialize_ms = sum((s["end"] - s["start"]) * 1000.0 for s in in_setup)

    op_ms = sum((end - start) * 1000.0 for start, end, _ in ops)
    covered_ms = sum(_union_ms(intervals) for intervals in roots.values())
    wire_bytes = sum(extras.get("serve.protocol/encode", [])) + sum(
        extras.get("serve.protocol/decode", [])
    )
    return {
        "core.features.self_ms_per_op": per_op("core.features"),
        "core.features.build_calls": count("core.features/build"),
        "core.features.update_calls": count("core.features/update"),
        "core.gnn.self_ms_per_op": per_op("core.gnn"),
        "core.gnn.forward_calls": forwards,
        "core.gnn.ms_per_forward": layer_self.get("core.gnn", 0.0) / forwards if forwards else 0.0,
        "core.policy.self_ms_per_op": per_op("core.policy"),
        "core.env.self_ms_per_op": per_op("core.env"),
        "core.env.improving_step_share": sum(steps) / len(steps) if steps else 0.0,
        "nn.autograd.self_ms_per_op": per_op("nn.autograd"),
        "nn.autograd.backward_calls": count("nn.autograd/backward"),
        "nn.optim.self_ms_per_op": per_op("nn.optim"),
        "nn.optim.step_calls": count("nn.optim/step"),
        "runtime.evaluator.self_ms_per_op": per_op("runtime.evaluator"),
        "runtime.evaluator.lookups": looked_up,
        "runtime.evaluator.hit_rate": hits / looked_up if looked_up else 0.0,
        "runtime.fastsim.self_ms_per_op": per_op("runtime.fastsim"),
        "runtime.fastsim.runs": count("runtime.fastsim/run"),
        "sim.self_ms_per_op": per_op("sim"),
        "sim.exact_runs": count("sim/simulate"),
        "baselines.self_ms_per_op": per_op("baselines"),
        "baselines.search_calls": count("baselines/search"),
        "experiments.runner.self_ms_per_op": per_op("experiments.runner"),
        "parallel.backends.self_ms_per_op": per_op("parallel.backends"),
        "parallel.backends.fanout_calls": count("parallel.backends/fanout"),
        "scenarios.materialize_ms": materialize_ms / len(in_setup) if in_setup else 0.0,
        "scenarios.materialize_calls": len(in_setup),
        "serve.protocol.self_ms_per_op": per_op("serve.protocol"),
        "serve.protocol.encode_calls": count("serve.protocol/encode"),
        "serve.protocol.decode_calls": count("serve.protocol/decode"),
        "serve.protocol.bytes_per_op": wire_bytes / num_ops,
        "serve.server.self_ms_per_op": per_op("serve.server"),
        "serve.session.self_ms_per_op": per_op("serve.session"),
        "serve.session.step_calls": count("serve.session/step"),
        "serve.batcher.wait_ms_per_request": waited / len(submits) if submits else 0.0,
        "harness.unattributed_share": 1.0 - covered_ms / op_ms if op_ms else 0.0,
    }
