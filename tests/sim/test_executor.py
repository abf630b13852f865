"""Runtime simulator conformance tests against Appendix B.5's model.

Hand-computed timelines for small instances, plus property tests of the
model's invariants (precedence, non-preemption, FIFO order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph, TaskGraphParams, generate_task_graph
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.sim import CostModel, MakespanObjective, simulate


def two_device_net(speeds=(1.0, 2.0), bw=10.0, delay=1.0) -> DeviceNetwork:
    devices = [Device(uid=i, speed=s) for i, s in enumerate(speeds)]
    bwm = np.full((2, 2), bw)
    np.fill_diagonal(bwm, np.inf)
    dlm = np.full((2, 2), delay)
    np.fill_diagonal(dlm, 0.0)
    return DeviceNetwork(devices, bwm, dlm)


def execution_order(res, device: int) -> list[int]:
    """Tasks run on ``device``, in start-time order."""
    tasks = [i for i, d in enumerate(res.placement) if d == device]
    return sorted(tasks, key=lambda i: res.start[i])


class TestHandComputedTimelines:
    def test_chain_two_devices(self):
        # 0 (C=2) on d0 (sp=1) -> w=2; edge B=10, bw=10, delay=1 -> c=2;
        # 1 (C=4) on d1 (sp=2) -> w=2.  Makespan = 2 + 2 + 2 = 6.
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        net = two_device_net()
        res = simulate(g, net, [0, 1])
        assert res.makespan == pytest.approx(6.0)
        assert res.start[0] == 0.0 and res.finish[0] == pytest.approx(2.0)
        # The output lands at finish + c = 4.0, and task 1 starts then.
        assert res.finish[0] + CostModel(g, net).comm_time((0, 1), 0, 1) == pytest.approx(4.0)
        assert res.start[1] == pytest.approx(4.0)

    def test_colocated_chain_has_zero_comm(self):
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        net = two_device_net()
        res = simulate(g, net, [0, 0])
        # w0=2, comm=0, w1=4 -> makespan 6 on the slow device
        assert res.makespan == pytest.approx(6.0)
        assert CostModel(g, net).comm_time((0, 1), 0, 0) == 0.0
        assert res.start[1] == res.finish[0] == pytest.approx(2.0)

    def test_parallel_tasks_on_one_device_serialize(self):
        # Fork 0 -> {1, 2}; both children on same device run back-to-back.
        g = TaskGraph((1.0, 3.0, 3.0), {(0, 1): 0.0, (0, 2): 0.0})
        net = two_device_net(speeds=(1.0, 1.0))
        res = simulate(g, net, [0, 0, 0])
        assert res.makespan == pytest.approx(1.0 + 3.0 + 3.0)
        # Non-overlap on the device:
        assert res.start[2] >= res.finish[1] or res.start[1] >= res.finish[2]

    def test_parallel_tasks_on_two_devices_overlap(self):
        g = TaskGraph((1.0, 3.0, 3.0), {(0, 1): 0.0, (0, 2): 0.0})
        net = two_device_net(speeds=(1.0, 1.0), delay=0.0)
        res = simulate(g, net, [0, 0, 1])
        assert res.makespan == pytest.approx(4.0)

    def test_join_waits_for_all_parents(self):
        # 0 -> 2 and 1 -> 2; parent 1 is slow, so 2 starts after it.
        g = TaskGraph((1.0, 5.0, 1.0), {(0, 2): 0.0, (1, 2): 0.0})
        net = two_device_net(speeds=(1.0, 1.0), delay=0.0)
        res = simulate(g, net, [0, 1, 0])
        assert res.start[2] == pytest.approx(5.0)

    def test_communication_overlaps_computation(self):
        # 0 on d0 sends to 1 (d1) while 2 runs on d0: d0 is busy during
        # the transfer, demonstrating comm/compute overlap.
        g = TaskGraph((1.0, 1.0, 10.0), {(0, 1): 100.0, (0, 2): 0.0})
        net = two_device_net(speeds=(1.0, 1.0), bw=10.0, delay=0.0)
        res = simulate(g, net, [0, 1, 0])
        # Transfer takes 10; task 2 runs 1..11 on d0 concurrently.
        assert res.start[1] == pytest.approx(11.0)
        assert res.start[2] == pytest.approx(1.0)
        assert res.makespan == pytest.approx(12.0)

    def test_compute_speed_scales_time(self):
        g = TaskGraph((6.0,), {})
        net = two_device_net(speeds=(2.0, 3.0))
        assert simulate(g, net, [0]).makespan == pytest.approx(3.0)
        assert simulate(g, net, [1]).makespan == pytest.approx(2.0)

    def test_fifo_order_preserved(self):
        # Diamond: 1 ready before 2 (shorter comm); device runs 1 first.
        g = TaskGraph((1.0, 2.0, 2.0, 1.0), {(0, 1): 0.0, (0, 2): 50.0, (1, 3): 0.0, (2, 3): 0.0})
        net = two_device_net(speeds=(1.0, 1.0), bw=10.0, delay=0.0)
        res = simulate(g, net, [1, 0, 0, 0])
        assert execution_order(res, 0) == [1, 2, 3]


class TestValidation:
    def test_placement_length(self):
        g = TaskGraph((1.0, 1.0), {(0, 1): 1.0})
        with pytest.raises(ValueError, match="entries"):
            simulate(g, two_device_net(), [0])

    def test_unknown_device(self):
        g = TaskGraph((1.0,), {})
        with pytest.raises(ValueError, match="unknown device"):
            simulate(g, two_device_net(), [5])

    def test_infeasible_placement_rejected(self):
        g = TaskGraph((1.0,), {}, requirements=(2,))
        devices = [Device(uid=0, speed=1.0), Device(uid=1, speed=1.0, supports=frozenset({0, 2}))]
        bw = np.full((2, 2), 10.0)
        np.fill_diagonal(bw, np.inf)
        net = DeviceNetwork(devices, bw, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="infeasible"):
            simulate(g, net, [0])  # device 0 lacks hardware type 2

    def test_unsatisfiable_requirement_rejected_upfront(self):
        g = TaskGraph((1.0,), {}, requirements=(2,))
        with pytest.raises(ValueError, match="no device supports"):
            simulate(g, two_device_net(), [0])

    @pytest.mark.parametrize("placement", [[1.9, 0.2], ["1", "0"]])
    def test_non_int_device_indices_are_refused(self, placement):
        # Not truncated to (1, 0): a float or a string is no device index.
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        with pytest.raises(ValueError, match="must be ints"):
            simulate(g, two_device_net(), placement)

    @pytest.mark.parametrize("placement", [[1.9, 0.2], ["1", "0"]])
    def test_makespan_objective_refuses_non_int_device_indices(self, placement):
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        with pytest.raises(ValueError, match="must be an int"):
            MakespanObjective().evaluate(CostModel(g, two_device_net()), placement)

    def test_noise_requires_rng(self):
        g = TaskGraph((1.0,), {})
        with pytest.raises(ValueError, match="rng"):
            simulate(g, two_device_net(), [0], noise=0.2)


class TestNoise:
    def test_noise_bounds(self):
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        net = two_device_net()
        base = simulate(g, net, [0, 1]).makespan
        rng = np.random.default_rng(0)
        for _ in range(20):
            noisy = simulate(g, net, [0, 1], noise=0.2, rng=rng).makespan
            assert 0.8 * base <= noisy <= 1.2 * base

    def test_zero_noise_deterministic(self):
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        net = two_device_net()
        assert simulate(g, net, [0, 1]).makespan == simulate(g, net, [0, 1]).makespan


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    num_tasks=st.integers(min_value=1, max_value=30),
    num_devices=st.integers(min_value=1, max_value=8),
)
def test_simulation_invariants(seed, num_tasks, num_devices):
    """Property: on random instances the B.5 model invariants hold."""
    rng = np.random.default_rng(seed)
    g = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.0), rng)
    net = generate_device_network(DeviceNetworkParams(num_devices=num_devices), rng)
    placement = rng.integers(0, num_devices, size=num_tasks)
    res = simulate(g, net, placement)

    cm = CostModel(g, net)
    # 1. Precedence: every task starts only after all parent data arrived.
    for v in range(num_tasks):
        for u in g.parents[v]:
            arrival = res.finish[u] + cm.comm_time((u, v), placement[u], placement[v])
            assert res.start[v] >= arrival - 1e-9
    # 2. Execution time matches the latency model exactly (no noise).
    for i in range(num_tasks):
        w = cm.compute_time(i, placement[i])
        assert res.finish[i] - res.start[i] == pytest.approx(w)
    # 3. Non-preemption / single task per device: busy intervals disjoint.
    for d in range(num_devices):
        order = execution_order(res, d)
        for a, b in zip(order, order[1:]):
            assert res.start[b] >= res.finish[a] - 1e-9
    # 4. Makespan consistency.
    assert res.makespan == pytest.approx(float(res.finish.max() - res.start.min()))
    # 5. Makespan at least the critical-path compute time of placed tasks.
    level_cost = {}
    for v in g.topo_order:
        w = cm.compute_time(v, placement[v])
        level_cost[v] = w + max((level_cost[u] for u in g.parents[v]), default=0.0)
    assert res.makespan >= max(level_cost.values()) - 1e-9
