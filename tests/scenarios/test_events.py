"""Event-stream materialization: determinism, ordering, interleaving."""

import numpy as np
import pytest

from repro.devices import ChurnConfig
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ClusterSpec,
    ScenarioSpec,
    WorkloadSpec,
    describe_events,
    materialize,
)


def networks_equal(a, b):
    return (
        a.devices == b.devices
        and np.array_equal(a.bandwidth, b.bandwidth)
        and np.array_equal(a.delay, b.delay)
    )


def streams_identical(a, b):
    if len(a.events) != len(b.events):
        return False
    if not networks_equal(a.initial_network, b.initial_network):
        return False
    if a.initial_graphs != b.initial_graphs:
        return False
    for ea, eb in zip(a.events, b.events):
        if (ea.index, ea.step, ea.kind, ea.uid, ea.factor) != (
            eb.index,
            eb.step,
            eb.kind,
            eb.uid,
            eb.factor,
        ):
            return False
        if not networks_equal(ea.network, eb.network):
            return False
        if ea.graph != eb.graph:
            return False
    return True


class TestDeterminism:
    @pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
    def test_same_seed_bit_identical_streams(self, name):
        spec = DEFAULT_REGISTRY.get(name)
        assert streams_identical(materialize(spec), materialize(spec))

    def test_different_seed_different_stream(self):
        spec = DEFAULT_REGISTRY.get("edge-churn")
        a = materialize(spec)
        b = materialize(DEFAULT_REGISTRY.get("edge-churn", seed=99))
        assert not streams_identical(a, b)


class TestStructure:
    def test_churn_only_stream_has_one_event_per_change(self):
        mat = materialize(DEFAULT_REGISTRY.get("edge-churn"))
        assert mat.num_events == mat.spec.churn.num_changes
        assert [e.index for e in mat.events] == list(range(mat.num_events))
        assert all(e.kind != "arrival" for e in mat.events)

    def test_arrival_only_stream(self):
        mat = materialize(DEFAULT_REGISTRY.get("stable-cluster"))
        assert {e.kind for e in mat.events} == {"arrival"}
        assert all(e.graph is not None for e in mat.events)
        # static cluster: every event carries the initial network
        assert all(networks_equal(e.network, mat.initial_network) for e in mat.events)

    def test_arrivals_fire_before_same_step_churn(self):
        spec = ScenarioSpec(
            name="interleave",
            workload=WorkloadSpec(initial_graphs=1, num_tasks=5, arrivals=((2, 2),)),
            cluster=ClusterSpec(num_devices=6),
            churn=ChurnConfig(min_devices=5, max_devices=6, num_changes=3),
        )
        events = materialize(spec).events
        step2 = [e.kind for e in events if e.step == 2]
        assert step2[:2] == ["arrival", "arrival"]
        assert step2[2] in ("add", "remove")
        # arrivals at a step see the network state before that step's churn
        churn_before = [e for e in events if e.step < 2 and e.kind != "arrival"]
        arrival = next(e for e in events if e.kind == "arrival")
        assert networks_equal(arrival.network, churn_before[-1].network)

    def test_graph_names_are_serial(self):
        mat = materialize(DEFAULT_REGISTRY.get("flash-crowd"))
        names = [g.name for g in mat.initial_graphs] + [
            e.graph.name for e in mat.events if e.kind == "arrival"
        ]
        assert names == [f"flash-crowd-g{i}" for i in range(len(names))]

    def test_describe_events_covers_every_event(self):
        mat = materialize(DEFAULT_REGISTRY.get("mixed-dynamics"))
        lines = describe_events(mat.events)
        assert len(lines) == mat.num_events
        assert any("arrival" in line for line in lines)


class TestHead:
    def test_keeps_the_first_events(self):
        mat = materialize(DEFAULT_REGISTRY.get("edge-churn"))
        head = mat.head(3)
        assert head.events == mat.events[:3]
        assert head.initial_graphs is mat.initial_graphs
        assert mat.head(0).num_events == 0
        assert mat.head(mat.num_events).events == mat.events

    @pytest.mark.parametrize("max_events", [-1, 11, True, "2", 2.5, None])
    def test_rejects_anything_but_an_int_in_range(self, max_events):
        mat = materialize(DEFAULT_REGISTRY.get("edge-churn"))
        assert mat.num_events == 10
        with pytest.raises(ValueError, match=r"max_events .*\[0, 10\]"):
            mat.head(max_events)
