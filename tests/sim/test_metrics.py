"""SLR / total-cost / energy / relocation-model tests."""

import numpy as np
import pytest

from repro.devices import Device, DeviceNetwork
from repro.graphs import TaskGraph
from repro.sim import (
    CostModel,
    EnergyObjective,
    MakespanObjective,
    RelocationCostModel,
    TaskRelocationProfile,
    TotalCostObjective,
    cp_min_lower_bound,
    energy_cost,
    simulate,
    total_cost,
)


def net3() -> DeviceNetwork:
    devices = [
        Device(uid=0, speed=1.0, compute_power=1.0),
        Device(uid=1, speed=2.0, compute_power=2.0),
        Device(uid=2, speed=4.0, supports=frozenset({0, 1}), compute_power=4.0),
    ]
    bw = np.full((3, 3), 10.0)
    np.fill_diagonal(bw, np.inf)
    dl = np.full((3, 3), 1.0)
    np.fill_diagonal(dl, 0.0)
    return DeviceNetwork(devices, bw, dl)


def chain() -> TaskGraph:
    return TaskGraph((4.0, 8.0), {(0, 1): 20.0})


class TestCostModel:
    def test_compute_matrix_default(self):
        cm = CostModel(chain(), net3())
        assert cm.compute_time(0, 0) == 4.0
        assert cm.compute_time(1, 2) == 2.0

    def test_comm_time(self):
        cm = CostModel(chain(), net3())
        assert cm.comm_time((0, 1), 0, 1) == pytest.approx(1.0 + 2.0)
        assert cm.comm_time((0, 1), 1, 1) == 0.0

    def test_comm_time_matrix_diagonal_zero(self):
        cm = CostModel(chain(), net3())
        mat = cm.comm_time_matrix((0, 1))
        np.testing.assert_allclose(np.diag(mat), 0.0)

    def test_mean_and_min_compute_respect_feasibility(self):
        g = TaskGraph((4.0,), {}, requirements=(1,))
        cm = CostModel(g, net3())  # only device 2 supports type 1
        assert cp_min_lower_bound(cm) == 1.0  # the one feasible device's time
        assert cm.mean_compute_time(0) == 1.0

    def test_mean_comm_excludes_diagonal(self):
        cm = CostModel(chain(), net3())
        assert cm.mean_comm_time((0, 1)) == pytest.approx(1.0 + 2.0)

    def test_custom_matrix_validation(self):
        with pytest.raises(ValueError, match="compute_matrix"):
            CostModel(chain(), net3(), compute_matrix=np.ones((1, 3)))
        with pytest.raises(ValueError, match="non-negative"):
            CostModel(chain(), net3(), compute_matrix=-np.ones((2, 3)))

    def test_realize_bounds_and_validation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = CostModel.realize(10.0, 0.3, rng)
            assert 7.0 <= v <= 13.0
        assert CostModel.realize(10.0, 0.0, None) == 10.0
        with pytest.raises(ValueError):
            CostModel.realize(1.0, 1.5, rng)


class TestSLR:
    def test_cp_min_chain(self):
        cm = CostModel(chain(), net3())
        # min w: task0 -> 1.0 (dev2), task1 -> 2.0 (dev2); path = both.
        assert cp_min_lower_bound(cm) == pytest.approx(3.0)

    def test_cp_min_respects_constraints(self):
        g = TaskGraph((4.0, 8.0), {(0, 1): 20.0}, requirements=(0, 1))
        cm = CostModel(g, net3())
        assert cp_min_lower_bound(cm) == pytest.approx(1.0 + 2.0)

    def test_cp_min_picks_heavier_branch(self):
        g = TaskGraph((1.0, 100.0, 1.0, 1.0), {(0, 1): 0.0, (0, 2): 0.0, (1, 3): 0.0, (2, 3): 0.0})
        cm = CostModel(g, net3())
        # path through task1 dominates: (1+100+1)/4 (all on dev2)
        assert cp_min_lower_bound(cm) == pytest.approx(102.0 / 4.0)

    def test_cp_min_repeats_and_follows_derived_networks(self):
        """The bound is computed once per cost model; a cost model built
        on a derived network must not see its ancestor's value."""

        def reference(cm):
            graph = cm.graph
            best = [
                float(cm.W[i, list(cm.feasible_sets[i])].min()) for i in range(graph.num_tasks)
            ]
            path_cost = [0.0] * graph.num_tasks
            for v in graph.topo_order:
                incoming = max((path_cost[u] for u in graph.parents[v]), default=0.0)
                path_cost[v] = incoming + best[v]
            return max(path_cost) if max(path_cost) > 0.0 else 1.0

        g = TaskGraph((1.0, 100.0, 7.0, 1.0), {(0, 1): 5.0, (0, 2): 5.0, (1, 3): 5.0, (2, 3): 5.0})
        net = net3()
        networks = [
            net,
            net.without_device(2),
            net.with_bandwidth_scaled(0.25),
            net.with_device_speed(2, 0.5),
        ]
        bounds = []
        for network in networks:
            cm = CostModel(g, network)
            first = cp_min_lower_bound(cm)
            assert first == reference(cm)
            assert cp_min_lower_bound(cm) == first  # repeated call
            assert isinstance(first, float)
            bounds.append(first)
        # dev2 (speed 4) gone or slowed: the bound moves with the network...
        assert bounds[1] == 102.0 / 2.0 and bounds[3] == 102.0 / 2.0
        # ...and link changes leave it alone (communication is excluded).
        assert bounds[2] == bounds[0] == 102.0 / 4.0

    def test_slr_at_least_one_for_unconstrained_single_path(self):
        cm = CostModel(chain(), net3())
        res = simulate(chain(), net3(), [2, 2], cm)
        assert res.makespan / cp_min_lower_bound(cm) >= 1.0

    def test_zero_compute_graph_fallback(self):
        g = TaskGraph((0.0, 0.0), {(0, 1): 1.0})
        cm = CostModel(g, net3())
        assert cp_min_lower_bound(cm) == 1.0


class TestCostObjectives:
    def test_total_cost_chain(self):
        cm = CostModel(chain(), net3())
        # both on dev0: w=4+8, comm local = 0
        assert total_cost(cm, [0, 0]) == pytest.approx(12.0)
        # split 0->1: 4 + 4 + (1 + 2) = 11
        assert total_cost(cm, [0, 1]) == pytest.approx(11.0)

    def test_energy_weights_device_power(self):
        cm = CostModel(chain(), net3())
        # dev2 is fast but power-hungry: w=(1,2), power 4 -> 12; no comm.
        assert energy_cost(cm, [2, 2]) == pytest.approx(12.0)
        # dev0: w=(4,8), power 1 -> 12. Equal here by construction.
        assert energy_cost(cm, [0, 0]) == pytest.approx(12.0)

    def test_objective_protocol(self):
        cm = CostModel(chain(), net3())
        assert MakespanObjective().evaluate(cm, [0, 0]) == pytest.approx(12.0)
        assert TotalCostObjective().evaluate(cm, [0, 0]) == pytest.approx(12.0)
        assert EnergyObjective().evaluate(cm, [1, 1]) == pytest.approx(12.0)

    def test_noisy_objective_validation(self):
        with pytest.raises(ValueError):
            MakespanObjective(noise=0.2)
        with pytest.raises(ValueError):
            MakespanObjective(noise=-0.1, rng=np.random.default_rng(0))


class TestRelocation:
    def profile(self):
        return TaskRelocationProfile(
            migration_bytes=1000.0,
            static_init_kbytes=10.0,
            startup_ms_by_type={"A": 100.0, "C": 10.0},
        )

    def model(self, include_static=False):
        return RelocationCostModel(
            {"camera": self.profile()},
            device_types={0: "A", 1: "C", 2: "C"},
            include_static_init=include_static,
        )

    def test_cost_components(self):
        # bw=10 bytes/ms, delay=1: migration = 1000/10 + 1 = 101; startup C=10.
        cost = self.model().cost_ms("camera", net3(), src_uid=0, dst_uid=1)
        assert cost == pytest.approx(101.0 + 10.0)

    def test_same_device_free(self):
        assert self.model().cost_ms("camera", net3(), 1, 1) == 0.0

    def test_static_init_included_when_requested(self):
        base = self.model().cost_ms("camera", net3(), 0, 1)
        cold = self.model(include_static=True).cost_ms("camera", net3(), 0, 1)
        assert cold == pytest.approx(base + 10.0 * 1024.0 / 10.0)

    def test_validation(self):
        with pytest.raises(KeyError):
            self.model().cost_ms("lidar", net3(), 0, 1)
        with pytest.raises(ValueError):
            TaskRelocationProfile(-1.0, 0.0, {})
        with pytest.raises(KeyError):
            self.profile().startup_ms("Z")
