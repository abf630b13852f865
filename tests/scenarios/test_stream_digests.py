"""Scenario streams are a fixed point, not just self-consistent.

``materialize(preset, seed)`` for every built-in preset at seeds 0, 3
and 11, and raw ``generate_task_graph`` samples with the rng's next
draw, are held to portable sha256 digests in the ``streams`` section of
``tests/golden/digests.json`` (rules and refresh: the root
``conftest.py``).  Hypothesis properties compare the library's
generator and churn process, output and next draw, with the reference
versions in ``stream_reference.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from stream_reference import generate_task_graph as reference_graph
from stream_reference import network_churn as reference_churn

from repro.devices import ChurnConfig, DeviceNetworkParams, generate_device_network, network_churn
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.scenarios import DEFAULT_REGISTRY, materialize

SEEDS = (0, 3, 11)


def _hex(values) -> str:
    return ",".join(float(v).hex() for v in values)


def network_bytes(net) -> bytes:
    devices = [
        (
            d.uid,
            float(d.speed).hex(),
            sorted(d.supports),
            float(d.compute_power).hex(),
            float(d.idle_power).hex(),
            None if d.position is None else _hex(d.position),
        )
        for d in net.devices
    ]
    return repr((net.name, devices)).encode() + net.bandwidth.tobytes() + net.delay.tobytes()


def graph_bytes(graph) -> bytes:
    edges = [(u, v, float(b).hex()) for (u, v), b in graph.edges.items()]  # insertion order
    return repr((graph.name, _hex(graph.compute), edges, graph.requirements)).encode()


def scenario_bytes(mat) -> bytes:
    parts = [network_bytes(mat.initial_network)]
    parts += [graph_bytes(g) for g in mat.initial_graphs]
    for e in mat.events:
        factor = None if e.factor is None else float(e.factor).hex()
        parts.append(repr((e.index, e.step, e.kind, e.uid, factor)).encode())
        parts.append(network_bytes(e.network))
        parts.append(b"-" if e.graph is None else graph_bytes(e.graph))
    return b"|".join(parts)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("preset", DEFAULT_REGISTRY.names())
def test_materialized_stream(golden, preset, seed):
    mat = materialize(DEFAULT_REGISTRY.get(preset, seed=seed))
    golden.check("streams", f"{preset}-s{seed}", scenario_bytes(mat), portable=True)


@pytest.mark.parametrize("num_tasks", [1, 2, 3, 16, 48])
def test_raw_graph_sample_and_next_draw(golden, num_tasks):
    rng = np.random.default_rng([2023, num_tasks])
    graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks), rng)
    payload = graph_bytes(graph) + float(rng.random()).hex().encode()
    golden.check("streams", f"graph-n{num_tasks}", payload, portable=True)


@settings(max_examples=60, deadline=None)
@given(
    num_tasks=st.integers(min_value=1, max_value=40),
    shape=st.floats(min_value=0.3, max_value=3.0),
    connect_prob=st.floats(min_value=0.0, max_value=1.0),
    num_hardware_types=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_generator_matches_reference(num_tasks, shape, connect_prob, num_hardware_types, seed):
    params = TaskGraphParams(
        num_tasks=num_tasks,
        shape=shape,
        connect_prob=connect_prob,
        num_hardware_types=num_hardware_types,
    )
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert graph_bytes(generate_task_graph(params, rng)) == graph_bytes(reference_graph(params, ref))
    assert rng.random() == ref.random()


def churn_stream(churn, initial, config, rng):
    """Each event's fields and network, or the refusal of a cluster with no move."""
    try:
        return [
            (e.kind, e.uid, e.step, e.factor, network_bytes(e.network))
            for e in churn(initial, config, rng)
        ]
    except ValueError:
        return "no add/remove possible"


@settings(max_examples=60, deadline=None)
@given(
    num_devices=st.integers(min_value=2, max_value=10),
    support_prob=st.floats(min_value=0.0, max_value=1.0),
    spread=st.integers(min_value=0, max_value=4),
    drift=st.floats(min_value=0.0, max_value=0.5),
    slowdown=st.floats(min_value=0.0, max_value=0.5),
    target=st.sampled_from(["random", "fastest"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_churn_matches_reference(num_devices, support_prob, spread, drift, slowdown, target, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    initial = generate_device_network(
        DeviceNetworkParams(num_devices=num_devices, support_prob=support_prob),
        np.random.default_rng([seed, 1]),
    )
    config = ChurnConfig(
        min_devices=max(1, num_devices - spread),
        max_devices=num_devices + spread,
        num_changes=12,
        bandwidth_drift_prob=drift,
        compute_slowdown_prob=slowdown,
        target=target,
    )
    assert churn_stream(network_churn, initial, config, rng) == churn_stream(
        reference_churn, initial, config, ref
    )
    assert rng.random() == ref.random()
