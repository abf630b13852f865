"""EFT device selection for search-based baselines (paper §5).

Given the current placement's timeline, estimate each candidate device's
earliest finish time for one task and pick the minimizer.  This is
HEFT's device-selection rule adapted to incremental search: the estimate
reuses the simulated timeline of the *current* placement rather than
re-simulating every candidate.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.placement import PlacementProblem
from ..core.search import SearchTrace
from ..runtime.evaluator import PlacementEvaluator
from ..runtime.fastsim import FastSimulator
from ..sim.executor import SimResult
from ..telemetry import metrics

__all__ = ["eft_estimates", "eft_device", "eft_relocation_search"]


def eft_estimates(
    problem: PlacementProblem,
    placement: Sequence[int],
    task: int,
    timeline: SimResult | None = None,
) -> dict[int, float]:
    """Estimated finish time of ``task`` on each feasible device.

    EFT(i, d) = max(data-ready(i, d), device-ready(d)) + w_{i,d}, with
    data-ready from the parents' current finish times and device-ready
    from the device's last finish in the current timeline (its own
    current device is credited with the task's own slot).

    A scalar kernel over rows of Python floats: the arithmetic is
    ``CostModel.comm_time``'s, operation for operation (the reference
    loop lives in ``tests/baselines/test_eft_kernel.py``), but each
    parent's finish, device, bytes and outgoing link rows are read out
    of NumPy once per call rather than once per candidate device.
    """
    graph, network, cm = problem.graph, problem.network, problem.cost_model
    if timeline is None:
        timeline = FastSimulator(problem).run(placement)
    own = placement[task]
    parents = [
        (
            float(timeline.finish[p]),
            placement[p],
            graph.edges[(p, task)],
            network.delay[placement[p]].tolist(),
            network.inv_bandwidth[placement[p]].tolist(),
        )
        for p in graph.parents[task]
    ]
    compute = cm.W[task].tolist()
    last_finish = timeline.device_last_finish.tolist()

    estimates: dict[int, float] = {}
    for d in cm.feasible_sets[task]:
        ready = 0.0
        for parent_finish, src, data, delay_to, inv_bw_to in parents:
            arrival = parent_finish + (0.0 if src == d else delay_to[d] + data * inv_bw_to[d])
            if arrival > ready:
                ready = arrival
        device_ready = last_finish[d]
        if d == own:
            # The task itself is the device's load; don't double count it.
            device_ready = min(device_ready, float(timeline.start[task]))
        estimates[d] = (device_ready if device_ready > ready else ready) + compute[d]
    return estimates


def eft_device(
    problem: PlacementProblem,
    placement: Sequence[int],
    task: int,
    timeline: SimResult | None = None,
) -> int:
    """The feasible device with the minimum estimated finish time."""
    estimates = eft_estimates(problem, placement, task, timeline)
    # Feasible sets ascend, so the first minimum is the lowest-index tie.
    return min(estimates, key=estimates.__getitem__)


def eft_relocation_search(
    evaluator: PlacementEvaluator,
    initial_placement: Sequence[int],
    episode_length: int,
    pick_task: Callable[[Sequence[int], SimResult], int],
) -> SearchTrace:
    """The task-EFT search episode on ``evaluator.problem``: per step,
    ``pick_task(placement, timeline)`` names a task and EFT relocates it.

    The timeline handed to ``pick_task`` and to EFT is the current
    placement's noise-free schedule, which the evaluator already holds
    from scoring it.  A task's EFT device is a function of that timeline
    alone, so it is decided once and remembered on it
    (``SimResult.eft_devices``): most steps leave the placement, hence
    the timeline, where it was, and a later search from the same
    placement meets the same cached timeline.
    """
    problem = evaluator.problem
    placement = list(problem.validate_placement(initial_placement))
    placements = [tuple(placement)]
    values = [evaluator.evaluate(placements[0])]
    relocations = [0] * problem.graph.num_tasks
    memo_hits = 0
    for _ in range(episode_length):
        timeline = evaluator.timeline(placements[-1])
        task = pick_task(placement, timeline)
        device = timeline.eft_devices.get(task)
        if device is None:
            device = timeline.eft_devices[task] = eft_device(problem, placement, task, timeline)
        else:
            memo_hits += 1
        if device != placement[task]:
            relocations[task] += 1
            placement[task] = device
            placements.append(tuple(placement))
        else:
            # The same object again: the evaluator serves it without a lookup.
            placements.append(placements[-1])
        values.append(evaluator.evaluate(placements[-1]))
    metrics().counter("eft.decisions").inc(episode_length)
    metrics().counter("eft.memo_hits").inc(memo_hits)
    return SearchTrace.from_values(placements, values, relocations)
