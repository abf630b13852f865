"""Deterministic materialization of a scenario's event stream.

:func:`materialize` expands a :class:`~repro.scenarios.spec.ScenarioSpec`
into concrete objects — the initial network, the initial task graphs,
and an ordered tuple of :class:`ScenarioEvent`s — using a single rng
seeded from the spec.  The stream is fully realized up front (graphs
included), so replaying it is independent of how policies behave and two
materializations of the same spec are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from ..devices.dynamics import network_churn
from ..devices.generator import DeviceNetworkParams, generate_device_network
from ..devices.network import DeviceNetwork
from ..graphs.generator import TaskGraphParams, generate_task_graph
from ..graphs.task_graph import TaskGraph
from .spec import ScenarioSpec

__all__ = ["ScenarioEvent", "MaterializedScenario", "materialize"]


@dataclass(frozen=True)
class ScenarioEvent:
    """One change the placement policies must adapt to.

    ``network`` is the cluster state *after* the event.  ``graph`` is
    set for ``"arrival"`` events; ``uid``/``factor`` for churn kinds
    (see :class:`repro.devices.ChurnEvent`).
    """

    index: int
    step: int
    kind: str
    network: DeviceNetwork
    graph: TaskGraph | None = None
    uid: int | None = None
    factor: float | None = None


@dataclass(frozen=True)
class MaterializedScenario:
    """Concrete replayable form of a spec."""

    spec: ScenarioSpec
    initial_network: DeviceNetwork
    initial_graphs: tuple[TaskGraph, ...]
    events: tuple[ScenarioEvent, ...]

    @property
    def num_events(self) -> int:
        return len(self.events)

    def head(self, max_events: int) -> MaterializedScenario:
        """This scenario cut to its first ``max_events`` events.

        ``max_events`` must be an int (not a bool) in ``[0, num_events]``.
        """
        if (
            not isinstance(max_events, int)
            or isinstance(max_events, bool)
            or not 0 <= max_events <= self.num_events
        ):
            raise ValueError(
                f"max_events must be an int in [0, {self.num_events}], "
                f"not {max_events!r}"
            )
        return replace(self, events=self.events[:max_events])


def _graph_params(spec: ScenarioSpec) -> TaskGraphParams:
    return TaskGraphParams(
        num_tasks=spec.workload.num_tasks,
        connect_prob=spec.workload.connect_prob,
        constraint_prob=spec.workload.constraint_prob,
    )


def materialize(spec: ScenarioSpec) -> MaterializedScenario:
    """Expand ``spec`` into its initial state and ordered event stream.

    Draw order (one rng, seeded by ``spec.seed``): network, initial
    graphs, arrival graphs (by arrival order), churn stream.  Arrivals
    scheduled at step *s* fire before the churn change of step *s*; a
    churn event's ``step`` is its (1-based) scenario step.
    """
    rng = np.random.default_rng(spec.seed)
    network = generate_device_network(
        DeviceNetworkParams(
            num_devices=spec.cluster.num_devices,
            support_prob=spec.cluster.support_prob,
            mean_speed=spec.cluster.mean_speed,
            mean_bandwidth=spec.cluster.mean_bandwidth,
            mean_delay=spec.cluster.mean_delay,
        ),
        rng,
        name=f"{spec.name}-net",
    )
    graph_params = _graph_params(spec)
    initial_graphs = tuple(
        generate_task_graph(graph_params, rng, name=f"{spec.name}-g{i}")
        for i in range(spec.workload.initial_graphs)
    )

    arrivals_by_step: dict[int, list[TaskGraph]] = {}
    serial = len(initial_graphs)
    for step, count in sorted(spec.workload.arrivals):
        bucket = arrivals_by_step.setdefault(step, [])
        for _ in range(count):
            bucket.append(generate_task_graph(graph_params, rng, name=f"{spec.name}-g{serial}"))
            serial += 1

    churn_by_step = {
        event.step + 1: event for event in network_churn(network, spec.churn, rng)
    }

    events: list[ScenarioEvent] = []
    current = network
    for step in range(1, spec.num_steps + 1):
        for graph in arrivals_by_step.get(step, ()):
            events.append(
                ScenarioEvent(index=len(events), step=step, kind="arrival", network=current, graph=graph)
            )
        churn = churn_by_step.get(step)
        if churn is not None:
            current = churn.network
            events.append(
                ScenarioEvent(
                    index=len(events),
                    step=step,
                    kind=churn.kind,
                    network=current,
                    uid=churn.uid,
                    factor=churn.factor,
                )
            )
    return MaterializedScenario(
        spec=spec,
        initial_network=network,
        initial_graphs=initial_graphs,
        events=tuple(events),
    )


def describe_events(events: Iterable[ScenarioEvent]) -> list[str]:
    """Human-readable one-liners for an event stream (CLI / debugging)."""
    lines = []
    for e in events:
        if e.kind == "arrival":
            detail = f"graph {e.graph.name} ({e.graph.num_tasks} tasks)"
        elif e.kind in ("bandwidth-drift", "compute-slowdown"):
            detail = f"device {e.uid} x{e.factor:.2f}"
        else:
            detail = f"device {e.uid}"
        lines.append(
            f"step {e.step:3d}  {e.kind:<17s} {detail}  "
            f"[{e.network.num_devices} devices]"
        )
    return lines
