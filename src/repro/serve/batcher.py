"""Request batcher: concurrent evaluate requests -> one ``evaluate_many``.

Connection threads :meth:`RequestBatcher.submit_many` placements and
block, each call queued as one ``(pending, lo, hi)`` span.  A drain
thread takes what accumulated in a short window — ``max_batch``
placements at most, cutting a straddling span — and scores it through
:func:`repro.runtime.evaluator.coalesce_evaluate`: one evaluator's spans
become one :meth:`evaluate_many` (one feasibility check, one cost realization).

Routing every evaluation through one drain thread is also what makes
the server's shared :class:`EvaluatorPool` safe without per-evaluator
locks: connection threads never touch evaluator caches, they only wait
on their request's event.  Batching changes speed, never values — the
batcher equivalence test pins ``submit_many`` results against direct
``evaluate`` calls.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Sequence

from ..runtime.evaluator import PlacementEvaluator, coalesce_evaluate
from ..telemetry import metrics, span

__all__ = ["RequestBatcher"]

# How long a submitter waits for its results, and ``stop`` for the drain
# thread, before giving up on a drain thread that is alive but stuck.
DRAIN_TIMEOUT_S = 30.0


class _Pending:
    """One ``submit_many`` call: its placements, their values, one waiter.

    The queue holds ``(pending, lo, hi)`` spans, so one call may be scored
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


_Span = tuple[_Pending, int, int]  # a call's placements [lo, hi), queued and scored together


class RequestBatcher:
    """Coalesce concurrent scoring requests through ``evaluate_many``.

    A drain thread that dies (an exception outside the per-batch guard)
    fails every blocked and later submitter by name instead of hanging
    them; one that is wedged fails each submitter after ``DRAIN_TIMEOUT_S``.

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
        if not 0.0 <= max_wait_ms < float("inf"):
            raise ValueError("max_wait_ms must be a finite number >= 0")
        self.max_wait_ms = float(max_wait_ms)
        self.max_batch = max_batch
        self._cond = threading.Condition()
        self._queue: deque[_Span] = deque()
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
        thread.join(timeout=DRAIN_TIMEOUT_S)
        self._thread = None

    # -- request side ------------------------------------------------------------

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
        with self._cond:
            if self._died is not None:
                raise RuntimeError(self._died)
            if self._stopping:
                raise RuntimeError("RequestBatcher is stopping")
            self._queue.append((pending, 0, len(placements)))
            self.requests += len(placements)
            self._cond.notify_all()
        # Set by its last score, its failure, or a dying drain thread.
        if not pending.done.wait(DRAIN_TIMEOUT_S):
            with self._cond:  # take back what the wedged drain thread never took
                self._queue = deque(s for s in self._queue if s[0] is not pending)
            if not pending.done.is_set():
                raise TimeoutError(
                    f"evaluate of {len(placements)} placements got no result from "
                    f"the drain thread within {DRAIN_TIMEOUT_S:g} s"
                )
        if pending.error is not None:
            raise pending.error
        return pending.values

    # -- drain side --------------------------------------------------------------

    def _take_batch(self) -> list[_Span] | None:
        """Next batch of spans (ordered by arrival), ``None`` to shut down."""
        with self._cond:
            while not self._queue and not self._stopping:
                self._cond.wait()
            if not self._queue:
                return None  # stopping with an empty queue
            if self.max_wait_ms and not self._stopping:
                # Linger once: let concurrent requests coalesce into
                # this batch.  A second wait would trade latency for
                # marginal batching, so the window is a single interval.
                if sum(hi - lo for _, lo, hi in self._queue) < self.max_batch:
                    self._cond.wait(timeout=self.max_wait_ms / 1000.0)
            batch, room = [], self.max_batch
            while self._queue and room:
                pending, lo, hi = self._queue.popleft()
                if hi - lo > room:  # the rest stays first in line
                    self._queue.appendleft((pending, lo + room, hi))
                    hi = lo + room
                batch.append((pending, lo, hi))
                room -= hi - lo
            return batch

    def _drain_loop(self) -> None:
        batch: list[_Span] | None = None
        try:
            while True:
                batch = self._take_batch()
                if batch is None:
                    return
                self.batches += 1
                metrics().histogram("serve.batch_size").observe(sum(hi - lo for _, lo, hi in batch))
                with span("serve.batch"):
                    error = self._score(batch)
                    if error is not None:
                        self._isolate_failure(batch, error)
        except BaseException as error:
            # Unwinding: refuse new work and fail, by name, the batch in
            # flight and everything still queued.
            with self._cond:
                self._died = f"RequestBatcher drain thread died: {error!r}"
                stranded = (batch or []) + list(self._queue)
                self._queue.clear()
            for pending, _, _ in stranded:
                if not pending.done.is_set():
                    pending.error = RuntimeError(self._died)
                    pending.done.set()
            raise  # the thread's traceback goes to threading.excepthook

    def _isolate_failure(self, batch: list[_Span], error: BaseException) -> None:
        """A batch that failed as a whole is re-scored one span (one call's
        share) at a time, so the error lands only on the request that raised."""
        for pending, lo, hi in batch:
            # A lone submitter's failure is already known.
            share_error = error if len(batch) == 1 else self._score([(pending, lo, hi)])
            if share_error is not None:
                pending.error = share_error
                pending.done.set()

    @staticmethod
    def _score(batch: list[_Span]) -> BaseException | None:
        """Score ``batch`` together, releasing each waiter whose last
        placements these were; on failure release nobody and return the error."""
        try:
            values = coalesce_evaluate([(p.evaluator, p.placements[lo:hi]) for p, lo, hi in batch])
        except BaseException as error:  # noqa: BLE001 - shipped to waiters
            return error
        for (pending, lo, hi), span_values in zip(batch, values):
            pending.values[lo:hi] = span_values
            pending.remaining -= hi - lo
            if pending.remaining == 0:
                pending.done.set()
        return None
