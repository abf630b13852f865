"""Fault harness: a churn that cannot run is refused when the spec is made.

With no soft event to draw and ``min_devices == max_devices``, a churn
step can only remove a device while the cluster is above that bound, so a
cluster of ``n`` devices allows at most ``n - min_devices`` changes.  A
longer churn used to pass :class:`ScenarioSpec` validation and fail only
in ``materialize``, one step into the event stream.  It is now a named
``ValueError`` at construction.  Whether a device is removable at all
depends on the drawn network, so that case keeps its named refusal in
``network_churn``.  Nothing here blocks, so no test needs a deadline of
its own.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.scenarios.events as events
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.devices.dynamics import ChurnConfig, network_churn
from repro.scenarios import DEFAULT_REGISTRY, materialize
from repro.scenarios.spec import ClusterSpec, ScenarioSpec, WorkloadSpec

UNRUNNABLE = r"^unrunnable churn: min_devices == max_devices"
NO_MOVE = r"^network_churn: no add/remove possible"


def spec_of(num_devices, bound, num_changes, drift=0.0, seed=0):
    return ScenarioSpec(
        "churn-bound",
        seed,
        workload=WorkloadSpec(initial_graphs=1, num_tasks=3),
        cluster=ClusterSpec(num_devices=num_devices),
        churn=ChurnConfig(
            min_devices=bound,
            max_devices=bound,
            num_changes=num_changes,
            bandwidth_drift_prob=drift,
        ),
    )


def test_refused_at_construction_before_materialize(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the churn ran: the spec was not refused at construction")

    monkeypatch.setattr(events, "network_churn", unreachable)
    with pytest.raises(ValueError, match=UNRUNNABLE):
        spec_of(num_devices=4, bound=4, num_changes=1)  # fixed membership
    with pytest.raises(ValueError, match=UNRUNNABLE):
        spec_of(num_devices=5, bound=3, num_changes=3)  # two removals, then stuck
    # The bounds themselves, and any churn with a soft event to draw, stand.
    spec_of(num_devices=5, bound=3, num_changes=2)
    spec_of(num_devices=4, bound=4, num_changes=0)
    spec_of(num_devices=4, bound=4, num_changes=6, drift=0.5)


@settings(max_examples=40, deadline=None)
@given(
    num_devices=st.integers(1, 6),
    spare=st.integers(0, 5),
    num_changes=st.integers(0, 8),
    seed=st.integers(0, 2**16),
)
def test_refused_exactly_when_the_churn_must_fail(num_devices, spare, num_changes, seed):
    """A refused spec's churn fails on every drawn network; an accepted
    one runs, or fails only on a drawn network with no removable device."""
    bound = max(num_devices - spare, 1)
    network = generate_device_network(
        DeviceNetworkParams(num_devices=num_devices), np.random.default_rng(seed)
    )
    churn = ChurnConfig(min_devices=bound, max_devices=bound, num_changes=num_changes)
    stream = network_churn(network, churn, np.random.default_rng(seed + 1))
    if num_changes > num_devices - bound:
        with pytest.raises(ValueError, match=UNRUNNABLE):
            spec_of(num_devices, bound, num_changes)
        with pytest.raises(ValueError, match=NO_MOVE):
            list(stream)
        return
    spec_of(num_devices, bound, num_changes)
    try:
        assert len(list(stream)) == num_changes
    except ValueError as error:
        assert str(error).startswith("network_churn: no add/remove possible"), error


@pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
def test_every_default_preset_still_validates(name):
    spec = DEFAULT_REGISTRY.get(name)
    assert dataclasses.replace(spec) == spec  # __post_init__ runs again


def test_the_drawn_network_case_keeps_its_refusal_in_network_churn():
    """Two devices, each the only one of some hardware type: neither can go,
    and the cluster is at its maximum.  The spec cannot know that."""
    spec = ScenarioSpec(
        "drawn",
        1,
        workload=WorkloadSpec(initial_graphs=1, num_tasks=3),
        cluster=ClusterSpec(num_devices=2, support_prob=0.0),
        churn=ChurnConfig(min_devices=1, max_devices=2, num_changes=1),
    )
    with pytest.raises(ValueError, match=NO_MOVE):
        materialize(spec)
