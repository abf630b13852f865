"""Minimal discrete-event simulation engine (SimPy substitute).

The paper's artifact uses SimPy to coordinate task-execution and
data-transmission events (Appendix B.5).  SimPy is unavailable offline,
so this module provides the same capability: a priority-queue event loop
with deterministic tie-breaking (events scheduled earlier run first at
equal timestamps).
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Simulation"]


class Simulation:
    """A time-ordered event loop.

    Callbacks may schedule further events; :meth:`run` drains the queue
    and returns the timestamp of the last executed event.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time (valid inside callbacks)."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        heapq.heappush(self._queue, (self._now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now {self._now}")
        heapq.heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    def run(self, max_events: int = 10_000_000) -> float:
        """Run until the queue is empty; return final time.

        ``max_events`` guards against runaway feedback loops in user
        callbacks (a bug, not a load signal — hence an exception).
        """
        if self._running:
            raise RuntimeError("Simulation.run is not reentrant")
        self._running = True
        try:
            events = 0
            while self._queue:
                time, _, callback = heapq.heappop(self._queue)
                self._now = time
                callback()
                events += 1
                if events > max_events:
                    raise RuntimeError(f"exceeded {max_events} events; callback loop?")
            return self._now
        finally:
            self._running = False
