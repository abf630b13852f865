"""Seed-deterministic multiprocess fan-out.

:class:`WorkerPool` executes a list of tasks — ``(module-level fn,
picklable payload)`` pairs — across N worker processes and returns the
results **in task order**, so callers see identical output regardless of
how the OS interleaves worker completion.

Determinism contract
--------------------
A task's result must be a pure function of its payload and the pool's
``context``.  In particular:

* every random draw inside a task must come from a stream derived from
  the task's own identity, e.g. ``task_rng(seed, task_index)`` — never
  from a generator shared across tasks;
* tasks must not communicate through mutable shared state (each worker
  holds its own unpickled copy of the context, and ``workers=1`` runs
  against a private copy as well);
* worker-local caches (evaluator pools, feature builders) may be kept on
  the context for speed, but must not change computed values.

Under this contract ``pool.map(fn, payloads)`` is bit-identical for any
worker count — the property the determinism suite in
``tests/parallel/`` locks in.

The context object is pickled once per pool and broadcast to every
worker through the pool initializer (cheap relative to per-task
shipping); ``workers=1`` runs tasks inline against a pickled private
copy of the context, so the serial path exercises the exact code a
worker would run.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
from typing import Any, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ..telemetry import spans as _telemetry

__all__ = [
    "WorkerPool",
    "get_context",
    "task_rng",
    "available_workers",
    "resolve_workers",
    "broadcast",
]

_T = TypeVar("_T")

# Per-process broadcast slot: set once per worker by the pool
# initializer, or swapped around in-process execution by broadcast().
_CONTEXT: Any = None


def get_context() -> Any:
    """The current pool's broadcast context (``None`` outside a task)."""
    return _CONTEXT


def _install_context(payload: bytes) -> None:
    global _CONTEXT
    _CONTEXT = pickle.loads(payload)


@contextlib.contextmanager
def broadcast(context: Any) -> Iterator[None]:
    """Make ``context`` what :func:`get_context` returns inside the block
    (in-process execution); restored on exit, so a task may open a pool."""
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


class WorkerPool:
    """Ordered, context-broadcasting process pool.

    Parameters
    ----------
    workers: process count.  ``1`` (the default) runs tasks inline in
        the calling process — no subprocesses, no pickling of payloads —
        but still against a pickled private copy of ``context`` so
        inline and multiprocess execution share one code path.
    context: arbitrary picklable object broadcast to every worker once;
        tasks read it back with :func:`get_context`.

    Worker processes are forked where available (Linux), falling back to
    the spawn start method elsewhere; task functions must be module-level
    (picklable by reference) either way.
    """

    def __init__(self, workers: int = 1, context: Any = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        self._payload = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = None
        self._inline_context: Any = None
        if workers > 1:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                ctx = multiprocessing.get_context("spawn")
            self._pool = ctx.Pool(
                workers, initializer=_install_context, initargs=(self._payload,)
            )
        else:
            # Unpickled once, like a worker would: worker-local caches on
            # the context survive across map() calls in inline mode too.
            self._inline_context = pickle.loads(self._payload)

    def map(self, fn: Callable[[Any], _T], payloads: Iterable[Any]) -> list[_T]:
        """Run ``fn`` over ``payloads``; results in payload order."""
        items = list(payloads)
        if self._pool is None:
            with broadcast(self._inline_context):
                return [fn(p) for p in items]
        shipped = self._pool.map(_invoke, [(fn, p) for p in items], chunksize=1)
        results = []
        for entry in shipped:
            if isinstance(entry, _TaskShipment):
                _telemetry.merge_task_delta(entry.delta)
                entry = entry.result
            results.append(entry)
        return results

    def close(self) -> None:
        """Shut down worker processes (no-op inline)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def resolve_workers(workers: int | None) -> int:
    """``None``/``0`` -> all available CPUs; otherwise the given count."""
    if workers is None or workers == 0:
        return available_workers()
    if workers < 1:
        raise ValueError("workers must be >= 1 (or 0/None for all CPUs)")
    return workers
