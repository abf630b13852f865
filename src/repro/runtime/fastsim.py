"""The placement simulator: the paper's execution model (App. B.5).

Each device runs its runnable tasks FIFO, one at a time, unpreempted; a
task is runnable once all parent outputs reached its device; sends overlap
computation, contention-free.  Costs: ``CostModel`` (Eqs. 2-3).

Expected costs are NumPy gathers by flat index over whole placement sets
(``batch_costs``); one inlined loop over plain lists (``_replay``, behind
``run`` and ``makespans``) replays the schedule.  It records start times
only; its makespan is the time of the last event it pops (the latest
finish; the first start is 0.0).  ``run`` derives ``finish = start +
durations`` (the walk's own float addition) and ``device_last_finish``.

Noise σ (``makespans`` only): ``CostModel.realize`` draws each cost
uniform on ±σ around its expectation (a 0.0 cost draws nothing) when the
walk reads it: each duration once, when its task starts, and each delay
once, when its sender finishes, in event order.  That is the draw order
of the reference event loop ``repro.sim.executor.simulate``, so noisy
makespans and the rng's final state equal that loop's.

That loop queues one arrival event per *edge* under a (time, sequence)
key; an arrival that is not its task's last only decrements a counter.
The walk folds those away: a finishing task computes each send's landing
time and keeps, per child, the latest (time, sequence) seen; the child's
last parent to finish pushes **one** ready event under that key, the key
of the arrival that enqueues the child in the loop.  Every event that
*does* something keeps its exact key, so the :class:`SimResult` equals
the loop's field for field, ties included.  The sequence counter still
advances once per edge, pushed or folded: two ready events may carry the
numbers of two sends that never reached the heap, and their order decides
which task a shared device runs first.  Property-tested (ordinary,
tie-heavy and noisy) in ``tests/runtime/test_evaluator.py``.
"""

from __future__ import annotations

import copy
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..core.placement import PlacementProblem
from ..sim.executor import SimResult
from ..sim.latency import CostModel

__all__ = ["FastSimulator"]


class _Realized:
    """``expected`` costs, each realized with noise when the walk reads it."""

    def __init__(self, expected: list[float], noise: float, rng: np.random.Generator) -> None:
        self.expected, self.noise, self.rng = expected, noise, rng

    def __getitem__(self, index: int) -> float:
        return CostModel.realize(self.expected[index], self.noise, self.rng)


class FastSimulator:
    """Simulator for one problem instance with batched costs.

    Precomputes the static structure (edge list, parent counts, entry
    tasks) once, then serves :meth:`run` (one placement's timeline),
    :meth:`makespans` (a batch's makespans, nothing else; noisy on
    request) and
    :meth:`batch_costs` (vectorized cost realization over many
    placements at once).  That structure is the graph's alone:
    :meth:`rebind` carries it to the same graph on another network.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        graph = problem.graph
        n = graph.num_tasks

        self._num_tasks = n
        self._entry_events = tuple((0.0, k, task) for k, task in enumerate(graph.entries))
        self._num_parents = tuple(len(graph.parents[i]) for i in range(n))
        # Edge arrays in graph.edges iteration order; children as
        # (child, edge_index) pairs in graph.children order — the order
        # the executor sends (and sequences) a finished task's outputs in.
        edge_index = {edge: k for k, edge in enumerate(graph.edges)}
        self._edges = tuple(graph.edges)
        self._edge_src, self._edge_dst, self._edge_data = graph.edge_arrays()
        self._children = tuple(
            tuple((j, edge_index[(i, j)]) for j in graph.children[i]) for i in range(n)
        )
        self._bind(problem)

    def _bind(self, problem: PlacementProblem) -> None:
        """Take the network-dependent tables from ``problem``, raveled."""
        self.problem = problem
        self._num_devices = m = problem.network.num_devices
        self._W = problem.cost_model.W.ravel()
        self._task_offset = np.arange(self._num_tasks) * m
        self._delay = problem.network.delay.ravel()
        self._inv_bw = problem.network.inv_bandwidth.ravel()

    def rebind(self, problem: PlacementProblem) -> "FastSimulator":
        """A simulator for ``problem``, this one's graph on another network:
        the graph-only walk shared, ``W``, ``delay`` and ``inv_bw`` its own."""
        if problem.graph is not self.problem.graph:
            raise ValueError("rebind needs a problem over the same task graph")
        simulator = copy.copy(self)
        simulator._bind(problem)
        return simulator

    # -- cost realization -----------------------------------------------------------

    def batch_costs(self, placements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expected durations for a (B, n) batch of *validated* placements.

        Returns ``(compute, comm)`` with shapes (B, n) and (B, num_edges):
        the exact values of ``CostModel.compute_time`` / ``comm_time``.
        """
        placements = np.array(placements, dtype=np.int64, copy=None, ndmin=2)
        compute = self._W.take(placements + self._task_offset)
        src, dst = placements.take(self._edge_src, axis=1), placements.take(self._edge_dst, axis=1)
        pair = src * self._num_devices + dst
        # delay + B/BW; both terms are exactly 0.0 for co-located pairs
        # (zero diagonal delay, zero inverse bandwidth), matching the
        # src == dst short-circuit in CostModel.comm_time.
        comm = self._delay.take(pair) + self._edge_data * self._inv_bw.take(pair)
        return compute, comm

    # -- simulation -------------------------------------------------------------------

    def run(self, placement: Sequence[int], validate: bool = True) -> SimResult:
        """The noise-free timeline of ``placement``.
        ``validate=False`` takes ``placement`` as a validated int tuple."""
        if validate:
            placement = self.problem.validate_placement(placement)
        devices = np.array(placement, dtype=np.int64)
        compute, comm = self.batch_costs(devices)
        starts, makespan = self._replay(placement, compute[0].tolist(), comm[0].tolist())
        start = np.array(starts)
        finish = start + compute[0]  # the walk's own addition (module docstring)
        device_last_finish = np.zeros(self._num_devices)
        np.maximum.at(device_last_finish, devices, finish)
        return SimResult(makespan, start, finish, device_last_finish, placement)

    def makespans(
        self, placements: np.ndarray, noise: float = 0.0, rng: np.random.Generator | None = None
    ) -> list[float]:
        """Makespans of a (B, n) batch of *validated* placements.

        ``[run(p).makespan for p in placements]`` without the timelines:
        one :meth:`batch_costs`, one ``tolist`` per array for the whole
        batch, no NumPy object per placement.  With ``noise`` > 0 each
        cost is drawn from ``rng`` as the walk reads it (module docstring).
        """
        if noise > 0.0 and rng is None:
            raise ValueError("noise > 0 requires an rng")
        placements = np.atleast_2d(np.asarray(placements, dtype=np.int64))
        compute, comm = self.batch_costs(placements)
        rows = zip(placements.tolist(), compute.tolist(), comm.tolist())
        if noise:
            rows = ((r, _Realized(d, noise, rng), _Realized(c, noise, rng)) for r, d, c in rows)
        return [self._replay(row, durations, delays)[1] for row, durations, delays in rows]

    def _replay(
        self, placement: Sequence[int], durations: Sequence[float], delays: Sequence[float]
    ) -> tuple[list[float], float]:
        """The event walk: ``(start, makespan)``, given per-task ``durations``
        and per-edge ``delays`` under ``placement``; each read once, in event
        order (module docstring).  A finished-task count detects a deadlock."""
        n = self._num_tasks
        start = [-1.0] * n  # -1.0 until the task starts: the deadlock message
        finished = 0
        busy = [False] * self._num_devices
        queues: list[list[int] | None] = [None] * self._num_devices  # waiting tasks, on contention
        pending = list(self._num_parents)
        # Per task, the latest input so far as the (time, sequence) key
        # its arrival event carries in the reference event loop.  No time is
        # below 0.0, so a task's first input always replaces the initial key.
        ready_time = [0.0] * n
        ready_seq = [0] * n
        children = self._children
        pop, push = heappop, heappush

        # Heap entries are (time, sequence, payload): payload >= 0 is a
        # task whose last input arrived, payload < 0 is ~task finishing;
        # sequence numbers are unique, so payloads are never compared.
        # Entry tasks are ready at 0.0 under numbers 0..k-1 (sorted: a heap).
        heap: list[tuple[float, int, int]] = list(self._entry_events)
        seq = len(heap)

        while heap:
            now, _, task = pop(heap)
            if task >= 0:
                device = placement[task]
                if busy[device]:
                    if queues[device] is None:
                        queues[device] = []
                    queues[device].append(task)
                    continue
                busy[device] = True
            else:
                task = ~task
                finished += 1
                device = placement[task]
                for child, edge_idx in children[task]:
                    t = now + delays[edge_idx]  # the edge's arrival
                    # `>=`: of two inputs landing together, the one sent
                    # later (higher sequence number) is processed last.
                    left = pending[child] - 1
                    if left:  # more inputs to come: keep the latest key
                        pending[child] = left
                        if t >= ready_time[child]:
                            ready_time[child] = t
                            ready_seq[child] = seq
                    elif t >= ready_time[child]:  # the last input is the latest
                        push(heap, (t, seq, child))
                    else:
                        push(heap, (ready_time[child], ready_seq[child], child))
                    seq += 1  # once per edge, pushed or folded (module docstring)
                queue = queues[device]
                if not queue:
                    busy[device] = False
                    continue
                task = queue.pop(0)  # first in, first out; the device stays busy
            start[task] = now
            push(heap, (now + durations[task], seq, ~task))
            seq += 1

        if finished < n:  # a task that starts always finishes: the rest never started
            missing = [i for i in range(n) if start[i] < 0.0]
            raise RuntimeError(f"simulation deadlock: tasks {missing} never ran")
        return start, now
