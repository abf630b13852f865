"""Request batcher: concurrent evaluate requests -> one ``evaluate_many``.

Connection threads :meth:`RequestBatcher.submit` individual
``(evaluator, placement)`` requests and block; a single drain thread
collects whatever accumulated within a short coalescing window and
scores it through :func:`repro.runtime.evaluator.coalesce_evaluate` —
same-evaluator requests become one :meth:`evaluate_many` batch (one
vectorized fast-path cost realization instead of N scalar calls).

Routing every evaluation through one drain thread is also what makes
the server's shared :class:`EvaluatorPool` safe without per-evaluator
locks: connection threads never touch evaluator caches, they only wait
on their request's event.  Batching changes speed, never values — the
batcher equivalence test pins ``submit`` results against direct
``evaluate`` calls.
"""

from __future__ import annotations

import threading
from typing import Sequence

from ..runtime.evaluator import PlacementEvaluator, coalesce_evaluate
from ..telemetry import metrics, span

__all__ = ["RequestBatcher"]


class _Pending:
    """One ``submit_many`` call: its placements, their values, one waiter.

    The queue holds ``(pending, index)`` pairs, so one call may be scored
    across several batches.  Only the drain thread writes ``values`` /
    ``remaining`` / ``error``; the submitter reads them once ``done`` is set.
    """

    __slots__ = ("evaluator", "placements", "values", "remaining", "error", "done")

    def __init__(self, evaluator: PlacementEvaluator, placements: Sequence[Sequence[int]]) -> None:
        self.evaluator = evaluator
        self.placements = placements
        self.values = [0.0] * len(placements)
        self.remaining = len(placements)  # ``done`` is set when this reaches zero
        self.error: BaseException | None = None
        self.done = threading.Event()


class RequestBatcher:
    """Coalesce concurrent scoring requests through ``evaluate_many``.

    A drain thread that dies (an exception outside the per-batch guard)
    fails every blocked and later submitter by name instead of hanging them.

    Parameters
    ----------
    max_wait_ms: how long the drain thread lingers after the first
        request of a batch to let concurrent requests pile in.  ``0``
        drains immediately (whatever is queued still coalesces).
    max_batch: upper bound on placements drained per batch.
    """

    def __init__(self, max_wait_ms: float = 2.0, max_batch: int = 256) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_wait_ms = max(0.0, float(max_wait_ms))
        self.max_batch = max_batch
        self._cond = threading.Condition()
        self._queue: list[tuple[_Pending, int]] = []
        self._stopping = False
        self._died: str | None = None  # the message every submitter gets once dead
        self._thread: threading.Thread | None = None
        self.requests = 0
        self.batches = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "RequestBatcher":
        if self._thread is None:
            self._stopping = False
            self._died = None
            self._thread = threading.Thread(
                target=self._drain_loop, name="repro-serve-batcher", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain everything queued, then stop the drain thread."""
        thread = self._thread
        if thread is None:
            return
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "RequestBatcher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- request side ------------------------------------------------------------

    def submit(self, evaluator: PlacementEvaluator, placement: Sequence[int]) -> float:
        """Score one placement; blocks until its batch completes."""
        return self.submit_many(evaluator, [placement])[0]

    def submit_many(
        self, evaluator: PlacementEvaluator, placements: Sequence[Sequence[int]]
    ) -> list[float]:
        """Score several placements, enqueued together: one waiter and
        one wait for the call, however many batches its placements span."""
        if self._thread is None:
            raise RuntimeError("RequestBatcher is not started")
        if len(placements) == 0:
            return []  # nothing would ever release an empty request
        pending = _Pending(evaluator, placements)
        items = [(pending, i) for i in range(len(placements))]
        with self._cond:
            if self._died is not None:
                raise RuntimeError(self._died)
            if self._stopping:
                raise RuntimeError("RequestBatcher is stopping")
            self._queue.extend(items)
            self.requests += len(items)
            self._cond.notify_all()
        pending.done.wait()  # set by its last score, its failure, or a dying drain thread
        if pending.error is not None:
            raise pending.error
        return pending.values

    # -- drain side --------------------------------------------------------------

    def _take_batch(self) -> list[tuple[_Pending, int]] | None:
        """Next batch (ordered by arrival), or ``None`` to shut down."""
        with self._cond:
            while not self._queue and not self._stopping:
                self._cond.wait()
            if not self._queue:
                return None  # stopping with an empty queue
            if self.max_wait_ms and not self._stopping:
                # Linger once: let concurrent requests coalesce into
                # this batch.  A second wait would trade latency for
                # marginal batching, so the window is a single interval.
                if len(self._queue) < self.max_batch:
                    self._cond.wait(timeout=self.max_wait_ms / 1000.0)
            batch = self._queue[: self.max_batch]
            del self._queue[: len(batch)]
            return batch

    def _drain_loop(self) -> None:
        batch: list[tuple[_Pending, int]] | None = None
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                self.batches += 1
                metrics().histogram("serve.batch_size").observe(len(batch))
                with span("serve.batch"):
                    error = self._score(batch)
                    if error is not None:
                        self._isolate_failure(batch, error)
        except BaseException as error:
            # Unwinding: refuse new work and fail, by name, the batch in
            # flight and everything still queued.
            with self._cond:
                self._died = f"RequestBatcher drain thread died: {error!r}"
                stranded = (batch or []) + self._queue
                self._queue = []
            for pending, _ in stranded:
                if not pending.done.is_set():
                    pending.error = RuntimeError(self._died)
                    pending.done.set()
            raise  # the thread's traceback goes to threading.excepthook

    def _isolate_failure(self, batch: list[tuple[_Pending, int]], error: BaseException) -> None:
        """A batch that failed as a whole is re-scored one submitter at a
        time, so the error lands only on the request that raised."""
        shares: dict[_Pending, list[tuple[_Pending, int]]] = {}
        for item in batch:
            shares.setdefault(item[0], []).append(item)
        for pending, share in shares.items():
            # A lone submitter's failure is already known.
            share_error = error if len(shares) == 1 else self._score(share)
            if share_error is not None:
                pending.error = share_error
                pending.done.set()

    @staticmethod
    def _score(batch: list[tuple[_Pending, int]]) -> BaseException | None:
        """Score ``batch`` together, releasing each waiter whose last
        placement this was; on failure release nobody and return the error."""
        try:
            values = coalesce_evaluate([(p.evaluator, p.placements[i]) for p, i in batch])
        except BaseException as error:  # noqa: BLE001 - shipped to waiters
            return error
        for (pending, i), value in zip(batch, values):
            pending.values[i] = value
            pending.remaining -= 1
            if pending.remaining == 0:
                pending.done.set()
        return None
