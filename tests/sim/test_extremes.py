"""Failure injection and extreme-parameter tests for the simulator stack.

The experiments sweep wide parameter ranges; these tests pin down the
behaviour at the edges: zero-compute tasks, near-zero bandwidth, huge
delays, degenerate graphs, and the statistics of the noise model.
"""

import numpy as np
import pytest

from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph
from repro.sim import CostModel, cp_min_lower_bound, simulate


def net(speeds=(1.0, 1.0), bw=10.0, delay=0.0):
    devices = [Device(uid=i, speed=s) for i, s in enumerate(speeds)]
    m = len(devices)
    bwm = np.full((m, m), bw)
    np.fill_diagonal(bwm, np.inf)
    dlm = np.full((m, m), delay)
    np.fill_diagonal(dlm, 0.0)
    return DeviceNetwork(devices, bwm, dlm)


class TestZeroCompute:
    def test_all_zero_compute_chain(self):
        g = TaskGraph((0.0, 0.0, 0.0), {(0, 1): 10.0, (1, 2): 10.0})
        res = simulate(g, net(), [0, 1, 0])
        # Makespan is pure communication: 2 transfers of 1.0 each.
        assert res.makespan == pytest.approx(2.0)

    def test_zero_compute_colocated_is_instant(self):
        g = TaskGraph((0.0, 0.0), {(0, 1): 10.0})
        res = simulate(g, net(), [0, 0])
        assert res.makespan == pytest.approx(0.0)

    def test_lower_bound_fallback_keeps_slr_finite(self):
        g = TaskGraph((0.0, 0.0), {(0, 1): 10.0})
        cm = CostModel(g, net())
        assert cp_min_lower_bound(cm) == 1.0


class TestExtremeNetwork:
    def test_tiny_bandwidth_dominates(self):
        g = TaskGraph((1.0, 1.0), {(0, 1): 1000.0})
        res_split = simulate(g, net(bw=0.001), [0, 1])
        res_local = simulate(g, net(bw=0.001), [0, 0])
        assert res_split.makespan > 100 * res_local.makespan

    def test_huge_delay_added_once_per_edge(self):
        g = TaskGraph((1.0, 1.0), {(0, 1): 0.0})
        res = simulate(g, net(delay=1e6), [0, 1])
        assert res.makespan == pytest.approx(2.0 + 1e6)

    def test_single_device_network(self):
        g = TaskGraph((2.0, 3.0), {(0, 1): 50.0})
        single = DeviceNetwork(
            [Device(uid=0, speed=1.0)], np.array([[np.inf]]), np.zeros((1, 1))
        )
        res = simulate(g, single, [0, 0])
        assert res.makespan == pytest.approx(5.0)

    def test_speed_asymmetry_orders_of_magnitude(self):
        g = TaskGraph((100.0,), {})
        fastslow = net(speeds=(1e-3, 1e3))
        assert simulate(g, fastslow, [0]).makespan == pytest.approx(1e5)
        assert simulate(g, fastslow, [1]).makespan == pytest.approx(0.1)


class TestDegenerateGraphs:
    def test_single_task(self):
        g = TaskGraph((5.0,), {})
        res = simulate(g, net(), [1])
        assert res.makespan == pytest.approx(5.0)
        assert res.placement == (1,)

    def test_disconnected_tasks_run_in_parallel(self):
        g = TaskGraph((4.0, 4.0), {})  # two independent entry/exit tasks
        res = simulate(g, net(), [0, 1])
        assert res.makespan == pytest.approx(4.0)

    def test_wide_fan_out_concurrent_sends(self):
        # One producer, 5 consumers on the other device: transfers are
        # concurrent (contention-free), so arrivals are simultaneous: the
        # zero-length consumers all start when the data lands.
        edges = {(0, i): 10.0 for i in range(1, 6)}
        g = TaskGraph((1.0,) + (0.0,) * 5, edges)
        network = net()
        res = simulate(g, network, [0] + [1] * 5)
        starts = res.start[1:].tolist()
        assert max(starts) == pytest.approx(min(starts))
        comm = CostModel(g, network).comm_time((0, 1), 0, 1)
        assert min(starts) == pytest.approx(res.finish[0] + comm)


class TestNoiseStatistics:
    def test_noise_mean_preserved(self):
        rng = np.random.default_rng(0)
        samples = [CostModel.realize(10.0, 0.3, rng) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(10.0, rel=0.02)

    def test_noise_support_is_uniform_band(self):
        rng = np.random.default_rng(1)
        samples = np.array([CostModel.realize(10.0, 0.2, rng) for _ in range(4000)])
        assert samples.min() >= 8.0 and samples.max() <= 12.0
        # Uniform: central half holds ~half the mass.
        central = ((samples > 9.0) & (samples < 11.0)).mean()
        assert 0.4 < central < 0.6

    def test_noisy_makespans_bracket_expectation(self):
        g = TaskGraph((2.0, 4.0), {(0, 1): 10.0})
        n = net()
        expected = simulate(g, n, [0, 1]).makespan
        rng = np.random.default_rng(2)
        noisy = [simulate(g, n, [0, 1], noise=0.2, rng=rng).makespan for _ in range(300)]
        assert np.mean(noisy) == pytest.approx(expected, rel=0.05)
