"""Vectorized fast path for noise-free placement simulation.

:func:`repro.sim.executor.simulate` drives a generic event loop through
per-event Python closures and per-call :class:`~repro.sim.latency.CostModel`
lookups.  On the deterministic path (noise == 0) every duration is known
up front, so this module precomputes all compute/communication times as
NumPy gathers — batched across whole placement sets — and replays the
*identical* event sequence with an inlined loop over plain tuples.

The event ordering (a priority queue keyed on (time, schedule-sequence))
is reproduced exactly, so the resulting :class:`SimResult` — and in
particular the makespan — is bit-identical to the exact executor.  This
invariant is property-tested in ``tests/runtime/test_evaluator.py``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..core.placement import PlacementProblem
from ..sim.executor import SimResult

__all__ = ["FastSimulator"]

# Event kinds, mirroring the executor's callbacks.  At equal timestamps the
# heap falls back to the schedule sequence number, never the kind, exactly
# like repro.sim.engine.Simulation.
_ENQUEUE, _DONE, _ARRIVAL = 0, 1, 2


class FastSimulator:
    """Noise-free simulator for one problem instance with batched costs.

    Precomputes the static structure (edge list, parent counts, entry
    tasks) once, then serves :meth:`run` per placement and
    :meth:`batch_costs` for vectorized cost realization over many
    placements at once.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        graph = problem.graph
        cm = problem.cost_model
        n = graph.num_tasks

        self._num_tasks = n
        self._num_devices = problem.network.num_devices
        self._entries = tuple(graph.entries)
        self._num_parents = tuple(len(graph.parents[i]) for i in range(n))
        # Edge arrays in graph.edges iteration order; children as
        # (child, edge_index) pairs in graph.children order (identical —
        # both derive from the edge-dict insertion order).
        edge_index = {edge: k for k, edge in enumerate(graph.edges)}
        self._edges = tuple(graph.edges)
        self._edge_src = np.array([u for (u, _) in self._edges], dtype=np.int64)
        self._edge_dst = np.array([v for (_, v) in self._edges], dtype=np.int64)
        self._edge_data = np.array([graph.edges[e] for e in self._edges], dtype=np.float64)
        self._children = tuple(
            tuple((j, edge_index[(i, j)]) for j in graph.children[i]) for i in range(n)
        )
        self._W = cm.W
        self._delay = problem.network.delay
        self._inv_bw = problem.network.inv_bandwidth
        self._task_range = np.arange(n)

    # -- cost realization -----------------------------------------------------------

    def batch_costs(self, placements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected durations for a (B, n) batch of placements.

        Returns ``(compute, comm)`` with shapes (B, n) and (B, num_edges):
        the exact values the executor would obtain from
        ``CostModel.compute_time`` / ``comm_time`` at noise 0.
        """
        placements = np.asarray(placements, dtype=np.int64)
        if placements.ndim == 1:
            placements = placements[None, :]
        compute = self._W[self._task_range, placements]
        src_dev = placements[:, self._edge_src]
        dst_dev = placements[:, self._edge_dst]
        # delay + B/BW; both terms are exactly 0.0 for co-located pairs
        # (zero diagonal delay, zero inverse bandwidth), matching the
        # src == dst short-circuit in CostModel.comm_time.
        comm = self._delay[src_dev, dst_dev] + self._edge_data * self._inv_bw[src_dev, dst_dev]
        return compute, comm

    # -- simulation -------------------------------------------------------------------

    def run(
        self,
        placement: Sequence[int],
        compute: np.ndarray | None = None,
        comm: np.ndarray | None = None,
        validate: bool = True,
    ) -> SimResult:
        """Simulate ``placement`` exactly; returns the executor's timeline.

        ``compute`` / ``comm`` may carry one row of :meth:`batch_costs`
        to reuse a batched realization; otherwise they are computed here.
        """
        if validate:
            placement = self.problem.validate_placement(placement)
        else:
            placement = tuple(int(d) for d in placement)
        if compute is None or comm is None:
            compute_b, comm_b = self.batch_costs(np.array(placement, dtype=np.int64))
            compute, comm = compute_b[0], comm_b[0]
        durations = compute.tolist()
        delays = comm.tolist()

        n, m = self._num_tasks, self._num_devices
        start = [0.0] * n
        finish = [-1.0] * n
        started = [False] * n
        pending = list(self._num_parents)
        queues: list[deque[int]] = [deque() for _ in range(m)]
        busy = [False] * m
        device_last_finish = [0.0] * m
        arrival: dict[tuple[int, int], float] = {}
        children = self._children
        edges = self._edges

        heap: list[tuple[float, int, int, int]] = []
        seq = 0
        for entry in self._entries:
            heappush(heap, (0.0, seq, _ENQUEUE, entry))
            seq += 1

        while heap:
            now, _, kind, payload = heappop(heap)
            if kind == _DONE:
                # payload is the finished task; free its device, fan out
                # sends to children, then dispatch the next queued task.
                task = payload
                device = placement[task]
                finish[task] = now
                device_last_finish[device] = now
                busy[device] = False
                for child, edge_idx in children[task]:
                    heappush(heap, (now + delays[edge_idx], seq, _ARRIVAL, edge_idx))
                    seq += 1
                queue = queues[device]
                if queue:
                    nxt = queue.popleft()
                    busy[device] = True
                    start[nxt] = now
                    started[nxt] = True
                    heappush(heap, (now + durations[nxt], seq, _DONE, nxt))
                    seq += 1
                continue
            if kind == _ARRIVAL:
                edge = edges[payload]
                arrival[edge] = now
                task = edge[1]
                pending[task] -= 1
                if pending[task] != 0:
                    continue
                # fall through: the child becomes runnable — enqueue it.
            else:
                task = payload
            device = placement[task]
            if busy[device]:
                queues[device].append(task)
            else:
                busy[device] = True
                start[task] = now
                started[task] = True
                heappush(heap, (now + durations[task], seq, _DONE, task))
                seq += 1

        if not all(started):
            missing = [i for i in range(n) if not started[i]]
            raise RuntimeError(f"simulation deadlock: tasks {missing} never ran")

        start_arr = np.array(start)
        finish_arr = np.array(finish)
        makespan = float(finish_arr.max() - start_arr.min())
        return SimResult(
            makespan=makespan,
            start=start_arr,
            finish=finish_arr,
            arrival=arrival,
            device_last_finish=np.array(device_last_finish),
            placement=placement,
        )
