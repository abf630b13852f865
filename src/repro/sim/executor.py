"""Reference event loop for the paper's execution model (App. B.5).

Model characteristics, verbatim from the paper:

1. each device executes runnable tasks first-in-first-out;
2. task execution is non-preemptive;
3. at most one task runs on a device at a time;
4. computation overlaps with communication (sends are concurrent and
   contention-free).

A non-entry task becomes runnable on its placed device once all parent
outputs have arrived there; entry tasks are runnable at time 0.

No shipped path runs :func:`simulate`: ``repro.runtime.fastsim`` replays
its schedule and noise draws bit for bit.  It is the independent
reference that replay is tested against, and the end-to-end benchmark
checks results against it, so it stays public (``repro.simulate``) and
a loop of its own: a wrapper over the replay would test it against itself.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..devices.network import DeviceNetwork
from ..graphs.task_graph import TaskGraph
from .engine import Simulation
from .latency import CostModel

__all__ = ["SimResult", "simulate"]


@dataclass(frozen=True)
class SimResult:
    """Timeline produced by one simulated execution.

    Attributes
    ----------
    makespan: completion time  (max task finish − min task start).
    start / finish: per-task execution window (the ts_i / td_i events).
    device_last_finish: per-device time its queue drained.
    placement: the placement that was simulated (dense device indices).
    eft_devices: task -> EFT device decided from this timeline, remembered
        by ``baselines.eft.eft_relocation_search``.  Derived, not part of
        the result: ignored by ``==``, ``repr`` and pickling, and gone
        with the timeline (an evaluator's LRU entry).
    """

    makespan: float
    start: np.ndarray
    finish: np.ndarray
    device_last_finish: np.ndarray
    placement: tuple[int, ...]
    eft_devices: dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self) -> dict:
        """Pickling and copying ship the timeline without its memo."""
        return {**self.__dict__, "eft_devices": {}}


def simulate(
    graph: TaskGraph,
    network: DeviceNetwork,
    placement: Sequence[int],
    cost_model: CostModel | None = None,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SimResult:
    """Execute ``graph`` on ``network`` under ``placement``; return the timeline.

    ``placement[i]`` is the dense device index of task ``i``.  Placement
    feasibility (hardware constraints) is validated up front.  With
    ``noise`` > 0, computation/communication realizations are drawn
    uniformly on ±noise around their expectations using ``rng``.
    """
    n, m = graph.num_tasks, network.num_devices
    try:  # a float or a string is refused, not truncated
        placement = tuple(map(operator.index, placement))
    except TypeError as error:
        raise ValueError(f"device indices must be ints: {error}") from None
    if len(placement) != n:
        raise ValueError(f"placement has {len(placement)} entries for {n} tasks")
    if cost_model is None:
        cost_model = CostModel(graph, network)
    for i, d in enumerate(placement):
        if not 0 <= d < m:
            raise ValueError(f"task {i} placed on unknown device {d}")
        if not network.devices[d].supports_requirement(graph.requirements[i]):
            raise ValueError(
                f"infeasible placement: task {i} (hardware type "
                f"{graph.requirements[i]}) on device index {d}"
            )
    if noise > 0.0 and rng is None:
        raise ValueError("noise > 0 requires an rng")

    sim = Simulation()
    start = np.full(n, np.nan)
    finish = np.full(n, np.nan)
    pending_inputs = [len(graph.parents[i]) for i in range(n)]
    queues: list[list[int]] = [[] for _ in range(m)]
    busy = [False] * m
    device_last_finish = np.zeros(m)

    def try_dispatch(device: int) -> None:
        if busy[device] or not queues[device]:
            return
        task = queues[device].pop(0)
        busy[device] = True
        start[task] = sim.now
        duration = CostModel.realize(cost_model.compute_time(task, device), noise, rng)
        sim.schedule(duration, lambda: on_task_done(task, device))

    def on_task_done(task: int, device: int) -> None:
        finish[task] = sim.now
        device_last_finish[device] = sim.now
        busy[device] = False
        # Concurrent, contention-free sends to every child (overlap rule 4).
        for child in graph.children[task]:
            edge = (task, child)
            delay = CostModel.realize(
                cost_model.comm_time(edge, device, placement[child]), noise, rng
            )
            sim.schedule(delay, lambda c=child: on_arrival(c))
        try_dispatch(device)

    def on_arrival(child: int) -> None:
        pending_inputs[child] -= 1
        if pending_inputs[child] == 0:
            enqueue(child)

    def enqueue(task: int) -> None:
        device = placement[task]
        queues[device].append(task)
        try_dispatch(device)

    for entry in graph.entries:
        sim.schedule_at(0.0, lambda t=entry: enqueue(t))
    sim.run()

    if np.isnan(finish).any():
        missing = [i for i in range(n) if np.isnan(finish[i])]
        raise RuntimeError(f"simulation deadlock: tasks {missing} never ran")

    makespan = float(finish.max() - start.min())
    return SimResult(makespan, start, finish, device_last_finish, placement)
