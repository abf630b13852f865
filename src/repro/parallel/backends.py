"""Pluggable execution backends: the one surface of the fan-out seam.

Call sites say *what* fans out — ``backend.fanout(fn, payloads,
context)`` with ordered results, one broadcast context and per-task
seed streams — and an :class:`ExecutionBackend` decides *where* it
runs:

* :class:`InlineBackend` — tasks run in the calling process against a
  pickled private copy of the context.
* :class:`ForkBackend` — a fork process pool per fan-out, sized to the
  task list; a worker that dies fails the fan-out by name.
* :class:`ShardBackend` — one shard of a run split across processes or
  machines: it computes the cells a manifest assigns to it, publishes
  every result to a content-addressed :class:`~repro.store.RunStore`,
  and fills unowned cells from the store (or waits for a peer shard to
  publish them).  The store directory is the whole transport.
* :class:`MergeBackend` — the assembly pass: never computes a cell,
  only loads them back in task order, so re-running an experiment under
  it rebuilds the report from published shard results bit-identically.

Library entry points take ``backend: ExecutionBackend | None`` (``None``
= :class:`InlineBackend`); the CLI's ``--backend NAME`` / ``--workers N``
flags become a backend exactly once, in :func:`make_backend`.

Every backend keeps the one determinism contract of
:mod:`repro.parallel.pool`: a task's result is a pure function of its
payload and of a *private copy* of the broadcast context, so a task may
write to its copy and **which** backend executed a cell can never
change its value — the property that makes a sharded run's merged
report byte-identical to the single-host run.

Backends also expose :meth:`ExecutionBackend.compute`, a memoization
hook for expensive *non-fanned* stages (e.g. an experiment's inline
training glue): with a store available the stage is computed once and
reloaded everywhere else — in particular by the merge pass, which would
otherwise recompute it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Mapping, Sequence, TypeVar

from ..store import CorruptEntryError, RunStore, active_store
from ..telemetry import log, span
from .pool import ExecutionBackendError, resolve_workers, run_tasks

__all__ = [
    "ExecutionBackend",
    "ExecutionBackendError",
    "ForkBackend",
    "InlineBackend",
    "MergeBackend",
    "MissingCellError",
    "ShardBackend",
    "make_backend",
]

_T = TypeVar("_T")

_POLL_INTERVAL_S = 0.2  # how often a waiting shard polls the store
_PROGRESS_INTERVAL_S = 10.0  # and how often it reports that it still waits


class MissingCellError(ExecutionBackendError):
    """Merge found cells no shard published (incomplete shard set)."""


class ExecutionBackend:
    """Executor of ordered, context-broadcasting fan-outs.

    Subclasses implement :meth:`fanout`; the base class provides
    store-aware stage memoization.
    """

    name: str = "abstract"

    def fanout(
        self, fn: Callable[[Any], _T], payloads: Iterable[Any], context: Any = None
    ) -> list[_T]:
        """Run ``fn`` over ``payloads``; results in payload order."""
        raise NotImplementedError

    def direct(self) -> ExecutionBackend:
        """The backend that runs every payload it is handed: this one,
        or the executor beneath a store-mediated backend (which skips
        payloads whose cells exist, breaking positional merges)."""
        return self

    def compute(self, kind: str, key: Mapping[str, Any], producer: Callable[[], _T]) -> _T:
        """Memoize an expensive non-fanned stage under ``(kind, key)``.

        With no store configured this is just ``producer()``; with one
        (the process-wide active store, or a shard backend's own) the
        stage is computed once per store and loaded everywhere else.
        ``key`` must fully identify the computation (experiment, seed,
        full scale parameters) — the store salts it with the code
        fingerprint, never with backend identity, so all backends of one
        run share the entry.
        """
        store = self._compute_store()
        if store is None:
            return producer()
        return store.get_or_create(kind, key, producer)

    def _compute_store(self) -> RunStore | None:
        return active_store()


class _PoolBackend(ExecutionBackend):
    """Shared implementation for the direct-execution backends."""

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def fanout(
        self, fn: Callable[[Any], _T], payloads: Iterable[Any], context: Any = None
    ) -> list[_T]:
        # Never more processes than tasks.
        items = list(payloads)
        return run_tasks(fn, items, min(self.workers, max(len(items), 1)), context)


class InlineBackend(_PoolBackend):
    """Single-process execution."""

    name = "inline"

    def __init__(self) -> None:
        super().__init__(workers=1)


class ForkBackend(_PoolBackend):
    """Fork-based multiprocess execution (``None``/``0`` = all CPUs)."""

    name = "fork"

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers=resolve_workers(workers))


class _StoreBackend(ExecutionBackend):
    """Common cell addressing for the store-mediated backends.

    A cell's address is ``(run fingerprint, fan-out site, visit number,
    cell index, task count)``.  The *site* is the task function's
    qualified name and the *visit* its occurrence count within the run —
    experiment code is deterministic given (scale, seed), so every
    backend of a run walks the same site/visit sequence and addresses
    agree without any coordination.
    """

    def __init__(self, store: RunStore, run_key: str) -> None:
        self.store = store
        self.run_key = run_key
        self._visits: dict[str, int] = {}

    def _visit(self, fn: Callable) -> tuple[str, int]:
        site = f"{fn.__module__}.{fn.__qualname__}"
        visit = self._visits.get(site, 0)
        self._visits[site] = visit + 1
        return site, visit

    def _cell_key(self, site: str, visit: int, index: int, count: int) -> dict:
        return {
            "run": self.run_key,
            "site": site,
            "visit": visit,
            "cell": index,
            "of": count,
        }

    def _compute_store(self) -> RunStore:
        return self.store

    def direct(self) -> ExecutionBackend:
        return InlineBackend()


class ShardBackend(_StoreBackend):
    """One shard of a store-mediated run.

    Owns the cells with ``index % num_shards == shard_index`` of every
    fan-out, computes them through ``inner`` (inline or fork — so
    within-shard parallelism composes with cross-machine sharding), and
    publishes each result to the store.  Unowned cells are loaded from
    the store when a peer shard already published them; otherwise the
    ``missing`` policy decides:

    * ``"compute"`` (default) — compute them locally too.  Always makes
      progress; concurrent shards sharing a store still split the work
      in practice because owned cells are computed (and published)
      first, so by the time a shard reaches its unowned tail the peers
      have usually filled it.
    * ``"wait"`` — poll the store until a peer publishes the cell.
      Guarantees each cell is computed exactly once across shards (the
      two-terminal / many-machine mode) but requires every shard of the
      plan to actually run against a commonly visible store.
    """

    name = "shard"

    def __init__(
        self,
        store: RunStore,
        run_key: str,
        num_shards: int,
        shard_index: int,
        inner: ExecutionBackend | None = None,
        missing: str = "compute",
        wait_timeout_s: float = 3600.0,
        progress: Callable[..., None] | None = None,
    ) -> None:
        super().__init__(store, run_key)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not 0 <= shard_index < num_shards:
            raise ValueError(f"shard_index {shard_index} outside [0, {num_shards})")
        if missing not in ("compute", "wait"):
            raise ValueError(f"missing policy must be 'compute' or 'wait', not {missing!r}")
        self.num_shards = num_shards
        self.shard_index = shard_index
        self.inner = inner or InlineBackend()
        self.missing = missing
        self.wait_timeout_s = wait_timeout_s
        self.progress = progress

    def direct(self) -> ExecutionBackend:
        return self.inner

    def _owns(self, index: int) -> bool:
        return index % self.num_shards == self.shard_index

    def _scan(
        self, keys: Sequence[Mapping[str, Any]], indices: Iterable[int], results: dict[int, Any]
    ) -> None:
        """Load the published cells among ``indices`` into ``results``; a
        corrupt one (moved aside by the store) is recomputed like a missing one."""
        for i in indices:
            if self.store.has("cell", keys[i]):
                try:
                    results[i] = self.store.load("cell", keys[i])
                except CorruptEntryError as error:
                    log.warn(f"{error}; recomputing it")

    def _progress(self, **fields) -> None:
        """Liveness record: shipped to the progress sink, never fatal."""
        if self.progress is None:
            return
        try:
            self.progress(
                shard=self.shard_index, num_shards=self.num_shards, **fields
            )
        except Exception:
            pass

    def compute(self, kind: str, key: Mapping[str, Any], producer: Callable[[], _T]) -> _T:
        """Stage memoization with the same ownership discipline as cells.

        A stage is a single unit, so shard 0 owns it.  Under the default
        ``"compute"`` policy every shard self-heals (first to arrive
        computes, the rest load — concurrent arrivals duplicate work but
        stay correct).  Under ``"wait"`` the non-owners poll for shard
        0's entry instead, keeping strict each-unit-computed-once
        partitioning for the expensive training stages too.
        """
        if self.missing == "wait" and self.shard_index != 0:
            began = time.monotonic()
            deadline = began + self.wait_timeout_s
            next_report = began + _PROGRESS_INTERVAL_S
            address = self.store.address(kind, key)[:12]
            with span("shard.await"):
                while not self.store.has(kind, key):
                    now = time.monotonic()
                    if now >= deadline:
                        raise ExecutionBackendError(
                            f"shard {self.shard_index}/{self.num_shards} timed out after "
                            f"{self.wait_timeout_s:.0f}s waiting for shard 0 to publish "
                            f"stage {kind}/{address}; "
                            "is shard 0 running against this store?"
                        )
                    if now >= next_report:
                        next_report = now + _PROGRESS_INTERVAL_S
                        elapsed = now - began
                        log.info(
                            f"shard {self.shard_index}/{self.num_shards}: waiting on "
                            f"stage {kind}/{address} owned by shard 0 "
                            f"({elapsed:.0f}s elapsed)"
                        )
                        self._progress(
                            phase="await-stage",
                            stage=f"{kind}/{address}",
                            owners=[0],
                            elapsed_s=elapsed,
                        )
                    time.sleep(_POLL_INTERVAL_S)
            return self.store.load(kind, key)
        return self.store.get_or_create(kind, key, producer)

    def fanout(
        self, fn: Callable[[Any], _T], payloads: Iterable[Any], context: Any = None
    ) -> list[_T]:
        items = list(payloads)
        site, visit = self._visit(fn)
        keys = [self._cell_key(site, visit, i, len(items)) for i in range(len(items))]
        results: dict[int, Any] = {}
        self._scan(keys, range(len(items)), results)
        owned = [i for i in range(len(items)) if i not in results and self._owns(i)]
        self._produce(fn, items, keys, owned, context, results)
        pending = [i for i in range(len(items)) if i not in results]
        if pending:
            if self.missing == "wait":
                with span("shard.await"):
                    self._await_cells(site, keys, pending, results)
            else:
                self._produce(fn, items, keys, pending, context, results)
        self._progress(phase="fanout-done", site=site, cells=len(items))
        return [results[i] for i in range(len(items))]

    def _produce(
        self,
        fn: Callable[[Any], Any],
        items: Sequence[Any],
        keys: Sequence[Mapping[str, Any]],
        indices: Sequence[int],
        context: Any,
        results: dict[int, Any],
    ) -> None:
        """Compute ``indices`` through the inner backend and publish them.

        Re-checks the store immediately before computing: a concurrent
        shard may have published a cell since the initial scan, and
        loading is always cheaper than recomputing.
        """
        self._scan(keys, indices, results)
        todo = [i for i in indices if i not in results]
        if not todo:
            return
        computed = self.inner.fanout(fn, [items[i] for i in todo], context)
        for i, value in zip(todo, computed):
            self.store.save("cell", keys[i], value)
            results[i] = value

    def _await_cells(
        self,
        site: str,
        keys: Sequence[Mapping[str, Any]],
        pending: Sequence[int],
        results: dict[int, Any],
    ) -> None:
        began = time.monotonic()
        deadline = began + self.wait_timeout_s
        next_report = began + _PROGRESS_INTERVAL_S
        remaining = list(pending)
        while remaining:
            self._scan(keys, remaining, results)
            remaining = [i for i in remaining if i not in results]
            if not remaining:
                return
            now = time.monotonic()
            if now >= deadline:
                raise ExecutionBackendError(
                    f"shard {self.shard_index}/{self.num_shards} timed out after "
                    f"{self.wait_timeout_s:.0f}s waiting for {len(remaining)} "
                    f"peer cell(s) of {site} (first: index {remaining[0]}); "
                    "are all planned shards running against this store?"
                )
            if now >= next_report:
                next_report = now + _PROGRESS_INTERVAL_S
                owners = sorted({i % self.num_shards for i in remaining})
                elapsed = now - began
                log.info(
                    f"shard {self.shard_index}/{self.num_shards}: waiting on "
                    f"{len(remaining)} peer cell(s) of {site} owned by "
                    f"shard(s) {','.join(map(str, owners))} ({elapsed:.0f}s elapsed)"
                )
                self._progress(
                    phase="await-cells",
                    site=site,
                    remaining=len(remaining),
                    owners=owners,
                    elapsed_s=elapsed,
                )
            time.sleep(_POLL_INTERVAL_S)


class MergeBackend(_StoreBackend):
    """Assembly pass over a completed shard set: loads, never computes.

    Re-running an experiment under this backend replays its fan-out
    sequence purely from published cells — the merge is bit-identical to
    the single-host run because the cells are, and any hole in the shard
    set surfaces as a :class:`MissingCellError` instead of silently
    recomputing (which would mask an incomplete or mis-planned run).
    """

    name = "merge"

    def compute(self, kind: str, key: Mapping[str, Any], producer: Callable[[], _T]) -> _T:
        """Load-only, like cells: every shard run published every stage
        it executed, so a miss means the shard set is incomplete — fail
        fast rather than silently recompute a (possibly hours-long)
        training stage during what is promised to be cheap assembly."""
        try:
            return self.store.load(kind, key)
        except KeyError:
            raise MissingCellError(
                f"merge is missing stage {kind}/{self.store.address(kind, key)[:12]} "
                f"in {self.store.root}; did every `repro shard run` of the plan "
                "complete?"
            ) from None

    def fanout(
        self, fn: Callable[[Any], _T], payloads: Iterable[Any], context: Any = None
    ) -> list[_T]:
        items = list(payloads)
        site, visit = self._visit(fn)
        keys = [self._cell_key(site, visit, i, len(items)) for i in range(len(items))]
        missing = [i for i, key in enumerate(keys) if not self.store.has("cell", key)]
        if missing:
            raise MissingCellError(
                f"merge is missing {len(missing)}/{len(items)} cell(s) of {site} "
                f"(first missing: index {missing[0]}) in {self.store.root}; "
                "did every `repro shard run` of the plan complete?"
            )
        return [self.store.load("cell", key) for key in keys]


def make_backend(name: str | None = None, workers: int | None = None) -> ExecutionBackend:
    """The one mapping from ``--backend NAME`` / ``--workers N`` to a backend.

    ``workers`` follows the flag (``None`` = not given, ``0`` = all
    CPUs).  With no ``name`` the count decides: inline at one worker or
    none given, fork otherwise.  A named fork without a count uses
    every CPU.
    """
    if name is None:
        count = 1 if workers is None else resolve_workers(workers)
        return ForkBackend(count) if count > 1 else InlineBackend()
    if name == "inline":
        return InlineBackend()
    if name == "fork":
        return ForkBackend(workers)
    raise ValueError(f"unknown backend {name!r} (inline | fork)")
