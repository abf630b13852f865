"""Seed-deterministic multiprocess fan-out.

:func:`run_tasks` executes a list of tasks — ``(module-level fn,
picklable payload)`` pairs — across N worker processes and returns the
results **in task order**, so callers see identical output regardless of
how the OS interleaves worker completion.

Determinism contract
--------------------
A task's result must be a pure function of its payload and the
broadcast ``context``.  In particular:

* every random draw inside a task must come from a stream derived from
  the task's own identity, e.g. ``task_rng(seed, task_index)`` — never
  from a generator shared across tasks;
* tasks must not communicate through mutable shared state (each worker
  holds its own unpickled copy of the context, and ``workers=1`` runs
  against a private copy as well);
* worker-local caches (evaluator pools, feature builders) may be kept on
  the context for speed, but must not change computed values.

Under this contract ``run_tasks(fn, payloads, workers, context)`` is
bit-identical for any worker count — the property the determinism suite
in ``tests/parallel/`` locks in.

The context is pickled once per call and broadcast to every worker
through the executor's initializer (cheap relative to per-task
shipping); ``workers=1`` runs tasks inline against a pickled private
copy of the context, so the serial path exercises the exact code a
worker would run.  A worker that dies mid-call (OOM kill, SIGKILL)
fails the call with :class:`ExecutionBackendError` naming the first
task left without a result — it never hangs it.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterator, Sequence, TypeVar

import numpy as np

from ..telemetry import spans as _telemetry

__all__ = [
    "ExecutionBackendError",
    "run_tasks",
    "get_context",
    "task_rng",
    "available_workers",
    "resolve_workers",
    "broadcast",
]

_T = TypeVar("_T")

# Per-process broadcast slot: set once per worker by the executor
# initializer, or swapped around in-process execution by broadcast().
_CONTEXT: Any = None


class ExecutionBackendError(RuntimeError):
    """A backend cannot satisfy the requested execution shape."""


def get_context() -> Any:
    """The current fan-out's broadcast context (``None`` outside a task)."""
    return _CONTEXT


def _install_context(payload: bytes) -> None:
    global _CONTEXT
    _CONTEXT = pickle.loads(payload)


@contextlib.contextmanager
def broadcast(context: Any) -> Iterator[None]:
    """Make ``context`` what :func:`get_context` returns inside the block
    (in-process execution); restored on exit, so a task may fan out."""
    global _CONTEXT
    saved = _CONTEXT
    _CONTEXT = context
    try:
        yield
    finally:
        _CONTEXT = saved


def task_rng(*key: int) -> np.random.Generator:
    """Independent RNG stream for one task: ``default_rng([*key])``.

    Keys are fed to :class:`numpy.random.SeedSequence`, so distinct key
    tuples give statistically independent streams and the same tuple
    always reproduces the same stream — the backbone of worker-count
    independence.
    """
    return np.random.default_rng(list(key))


def available_workers() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _TaskShipment:
    """Worker task result + the telemetry it recorded, shipped together."""

    __slots__ = ("result", "delta")

    def __init__(self, result: Any, delta: _telemetry.TaskDelta) -> None:
        self.result = result
        self.delta = delta


def _invoke(item: tuple[Callable[[Any], Any], Any]) -> Any:
    fn, payload = item
    token = _telemetry.begin_task()
    if token is None:
        return fn(payload)
    result = fn(payload)
    return _TaskShipment(result, _telemetry.end_task(token))


def run_tasks(
    fn: Callable[[Any], _T], items: Sequence[Any], workers: int, context: Any = None
) -> list[_T]:
    """Run ``fn`` over ``items`` against one broadcast ``context``;
    results in item order.

    ``workers=1`` runs tasks inline in the calling process — no
    subprocesses, no pickling of payloads — but still against a pickled
    private copy of ``context``.  More workers fork a process pool for
    this one call (spawn where fork is unavailable); task functions must
    be module-level (picklable by reference) either way.
    """
    shipped_context = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
    if workers == 1:
        with broadcast(pickle.loads(shipped_context)):
            return [fn(p) for p in items]
    try:
        start = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        start = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(
        workers, mp_context=start, initializer=_install_context, initargs=(shipped_context,)
    ) as executor:
        futures = [executor.submit(_invoke, (fn, p)) for p in items]
        results = []
        for index, future in enumerate(futures):
            try:
                entry = future.result()
            except BrokenProcessPool as exc:
                raise ExecutionBackendError(
                    f"a fork worker died; task {index} of {len(items)} "
                    f"({getattr(fn, '__qualname__', fn)}) has no result"
                ) from exc
            if isinstance(entry, _TaskShipment):
                _telemetry.merge_task_delta(entry.delta)
                entry = entry.result
            results.append(entry)
        return results


def resolve_workers(workers: int | None) -> int:
    """``None``/``0`` -> all available CPUs; otherwise the given count."""
    if workers is None or workers == 0:
        return available_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1 (or 0/None for all CPUs)")
    return workers
