"""Device network structure, generator, and churn tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import (
    ChurnConfig,
    Device,
    DeviceNetwork,
    DeviceNetworkParams,
    generate_device_network,
    network_churn,
)


def small_net() -> DeviceNetwork:
    devices = [
        Device(uid=0, speed=10.0, supports=frozenset({0, 1})),
        Device(uid=1, speed=5.0),
        Device(uid=2, speed=20.0, supports=frozenset({0, 1, 2})),
    ]
    bw = np.full((3, 3), 100.0)
    np.fill_diagonal(bw, np.inf)
    dl = np.ones((3, 3)) - np.eye(3)
    return DeviceNetwork(devices, bw, dl)


class TestDevice:
    def test_type0_always_supported(self):
        d = Device(uid=0, speed=1.0, supports=frozenset({3}))
        assert d.supports_requirement(0) and d.supports_requirement(3)

    def test_bad_speed(self):
        with pytest.raises(ValueError):
            Device(uid=0, speed=0.0)


class TestDeviceNetwork:
    def test_basic(self):
        net = small_net()
        assert net.num_devices == 3
        assert net.index_of(2) == 2
        assert 1 in net and 99 not in net

    def test_feasible_devices(self):
        net = small_net()
        assert net.feasible_devices(0) == (0, 1, 2)
        assert net.feasible_devices(1) == (0, 2)
        assert net.feasible_devices(2) == (2,)
        assert net.feasible_devices(9) == ()

    def test_feasible_devices_repeat_and_are_not_stale_on_derived_networks(self):
        """D_i is remembered per requirement on the (immutable) network;
        every transform builds a new network, which must start clean."""

        def scan(network, requirement):
            return tuple(
                k for k, d in enumerate(network.devices) if d.supports_requirement(requirement)
            )

        net = small_net()
        first = {r: net.feasible_devices(r) for r in (0, 1, 2, 9)}
        derived = [
            net.without_device(2),
            net.without_device(0),
            net.with_bandwidth_scaled(0.5),
            net.with_bandwidth_scaled(2.0, uid=1),
            net.with_device_speed(1, 50.0),
            net.with_device(Device(uid=7, speed=3.0, supports=frozenset({2})), 50.0, 2.0),
        ]
        for network in [net, *derived]:
            for requirement in (0, 1, 2, 9):
                expected = scan(network, requirement)
                assert network.feasible_devices(requirement) == expected
                assert network.feasible_devices(requirement) == expected  # repeated call
        assert net.without_device(2).feasible_devices(2) == ()
        assert derived[-1].feasible_devices(2) == (2, 3)
        assert {r: net.feasible_devices(r) for r in first} == first

    def test_inv_bandwidth_table(self):
        net = small_net()
        assert (np.diag(net.inv_bandwidth) == 0.0).all()
        off = ~np.eye(3, dtype=bool)
        assert (net.inv_bandwidth[off] == 1.0 / net.bandwidth[off]).all()
        scaled = net.with_bandwidth_scaled(0.5, uid=1)
        assert (scaled.inv_bandwidth[off] == 1.0 / scaled.bandwidth[off]).all()
        assert (np.diag(scaled.inv_bandwidth) == 0.0).all()
        assert (net.inv_bandwidth[off] == 1.0 / 100.0).all()  # the original is untouched

    def test_feasible_sets_validates(self):
        net = small_net()
        assert net.feasible_sets([0, 1]) == [(0, 1, 2), (0, 2)]
        with pytest.raises(ValueError, match="no device supports"):
            net.feasible_sets([9])

    def test_duplicate_uids_rejected(self):
        devices = [Device(uid=0, speed=1.0), Device(uid=0, speed=2.0)]
        bw = np.full((2, 2), 10.0)
        np.fill_diagonal(bw, np.inf)
        with pytest.raises(ValueError, match="unique"):
            DeviceNetwork(devices, bw, np.zeros((2, 2)))

    def test_diagonal_validation(self):
        devices = [Device(uid=0, speed=1.0)]
        with pytest.raises(ValueError, match="diagonal bandwidth"):
            DeviceNetwork(devices, np.array([[5.0]]), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="diagonal delay"):
            DeviceNetwork(devices, np.array([[np.inf]]), np.array([[1.0]]))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match=r"\(m, m\)"):
            DeviceNetwork([Device(uid=0, speed=1.0)], np.full((2, 2), np.inf), np.zeros((2, 2)))

    def test_without_device(self):
        net = small_net().without_device(1)
        assert net.num_devices == 2
        assert 1 not in net
        assert net.index_of(2) == 1  # indices re-densified

    def test_without_last_device_rejected(self):
        net = small_net().without_device(0).without_device(1)
        with pytest.raises(ValueError):
            net.without_device(2)

    def test_without_unknown_uid(self):
        with pytest.raises(KeyError):
            small_net().without_device(42)

    def test_with_device(self):
        net = small_net().with_device(
            Device(uid=7, speed=3.0), bandwidth_to=50.0, delay_to=2.0
        )
        assert net.num_devices == 4
        k = net.index_of(7)
        assert net.bandwidth[k, 0] == 50.0 and net.bandwidth[0, k] == 50.0
        assert net.delay[k, 1] == 2.0
        assert np.isinf(net.bandwidth[k, k])

    def test_with_device_duplicate_uid(self):
        with pytest.raises(ValueError, match="already present"):
            small_net().with_device(Device(uid=0, speed=1.0), 10.0, 1.0)

    def test_with_device_per_uid_links(self):
        net = small_net().with_device(
            Device(uid=7, speed=3.0),
            bandwidth_to={0: 10.0, 1: 20.0, 2: 30.0},
            delay_to={0: 1.0, 1: 2.0, 2: 3.0},
        )
        k = net.index_of(7)
        assert net.bandwidth[k, net.index_of(1)] == 20.0
        assert net.delay[k, net.index_of(2)] == 3.0


class TestGenerator:
    def test_count_and_speed_band(self):
        p = DeviceNetworkParams(num_devices=12, mean_speed=10.0, het_speed=0.4)
        net = generate_device_network(p, np.random.default_rng(0))
        assert net.num_devices == 12
        assert all(6.0 <= d.speed <= 14.0 for d in net.devices)

    def test_every_type_covered(self):
        p = DeviceNetworkParams(num_devices=5, num_hardware_types=4, support_prob=0.0)
        net = generate_device_network(p, np.random.default_rng(1))
        for t in range(4):
            assert net.feasible_devices(t), f"type {t} uncovered"

    def test_symmetric_links(self):
        net = generate_device_network(DeviceNetworkParams(num_devices=6), np.random.default_rng(2))
        off = ~np.eye(6, dtype=bool)
        np.testing.assert_allclose(net.bandwidth[off], net.bandwidth.T[off])
        np.testing.assert_allclose(net.delay, net.delay.T)

    def test_delay_range(self):
        p = DeviceNetworkParams(num_devices=8, mean_delay=2.0)
        net = generate_device_network(p, np.random.default_rng(3))
        off = ~np.eye(8, dtype=bool)
        assert (net.delay[off] >= 0).all() and (net.delay[off] <= 4.0).all()

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DeviceNetworkParams(num_devices=0)
        with pytest.raises(ValueError):
            DeviceNetworkParams(het_speed=1.0)


class TestChurn:
    def test_size_bounds_respected(self):
        p = DeviceNetworkParams(num_devices=20)
        net = generate_device_network(p, np.random.default_rng(5))
        cfg = ChurnConfig(min_devices=16, max_devices=20, num_changes=30)
        for event in network_churn(net, cfg, np.random.default_rng(6)):
            assert 16 <= event.network.num_devices <= 20

    def test_replacements_have_lower_capacity(self):
        p = DeviceNetworkParams(num_devices=20, het_speed=0.0, mean_speed=10.0)
        net = generate_device_network(p, np.random.default_rng(7))
        cfg = ChurnConfig(min_devices=16, max_devices=20, capacity_decay=0.5, num_changes=20)
        added_speeds = [
            ev.network.devices[ev.network.index_of(ev.uid)].speed
            for ev in network_churn(net, cfg, np.random.default_rng(8))
            if ev.kind == "add"
        ]
        assert added_speeds and all(s < 10.0 for s in added_speeds)

    def test_hardware_types_never_orphaned(self):
        p = DeviceNetworkParams(num_devices=20, num_hardware_types=3, support_prob=0.3)
        net = generate_device_network(p, np.random.default_rng(9))
        types = set().union(*(d.supports for d in net.devices))
        cfg = ChurnConfig(num_changes=25)
        for ev in network_churn(net, cfg, np.random.default_rng(10)):
            for t in types:
                assert ev.network.feasible_devices(t), f"type {t} orphaned"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ChurnConfig(min_devices=5, max_devices=4)
        with pytest.raises(ValueError):
            ChurnConfig(capacity_decay=0.0)


@settings(max_examples=20, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=25),
    types=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generated_networks_always_valid(m, types, seed):
    """Property: generator output always passes DeviceNetwork validation
    and covers every hardware type."""
    p = DeviceNetworkParams(num_devices=m, num_hardware_types=types)
    net = generate_device_network(p, np.random.default_rng(seed))
    assert net.num_devices == m
    for t in range(types):
        assert net.feasible_devices(t)
