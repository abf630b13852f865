"""Parametric random device-network generator (paper Appendix B.2)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import Device, DeviceNetwork

__all__ = ["DeviceNetworkParams", "generate_device_network"]


@dataclass(frozen=True)
class DeviceNetworkParams:
    """Input parameters of the device-network generator (§B.2 symbols).

    Attributes
    ----------
    num_devices: m.
    mean_speed: SP̄, average compute speed.
    mean_bandwidth: BW̄, average inter-device bandwidth.
    mean_delay: DL̄; DL_kl ~ U[0, 2·DL̄] off-diagonal.
    het_speed: ε_SP (uniform ±ε_SP·SP̄).
    het_bandwidth: ε_BW (uniform ±ε_BW·BW̄).
    num_hardware_types: matches the task generator's hardware-type space.
    support_prob: probability a device supports each non-generic type;
        drives the average number of feasible devices per task.
    """

    num_devices: int = 10
    mean_speed: float = 10.0
    mean_bandwidth: float = 100.0
    mean_delay: float = 1.0
    het_speed: float = 0.5
    het_bandwidth: float = 0.5
    num_hardware_types: int = 3
    support_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.mean_speed <= 0 or self.mean_bandwidth <= 0:
            raise ValueError("mean speed and bandwidth must be positive")
        if self.mean_delay < 0:
            raise ValueError("mean delay must be non-negative")
        if not 0 <= self.het_speed < 1 or not 0 <= self.het_bandwidth < 1:
            raise ValueError("heterogeneity factors must be in [0, 1)")
        if self.num_hardware_types < 1:
            raise ValueError("need at least hardware type 0")
        if not 0 <= self.support_prob <= 1:
            raise ValueError("support_prob must be in [0, 1]")


def generate_device_network(
    params: DeviceNetworkParams,
    rng: np.random.Generator,
    name: str | None = None,
    uid_offset: int = 0,
) -> DeviceNetwork:
    """Sample one random fully-connected device network.

    Every non-generic hardware type is guaranteed at least one supporting
    device so that constrained tasks always have a feasible placement.
    """
    m = params.num_devices
    speeds = rng.uniform(
        params.mean_speed * (1 - params.het_speed),
        params.mean_speed * (1 + params.het_speed),
        size=m,
    )

    # Hardware support sets; type 0 is implicit on every device.
    supports = [
        {0} | {t for t in range(1, params.num_hardware_types) if rng.random() < params.support_prob}
        for _ in range(m)
    ]
    for t in range(1, params.num_hardware_types):
        if not any(t in s for s in supports):
            supports[int(rng.integers(0, m))].add(t)

    devices = [
        Device(uid=uid_offset + k, speed=float(speeds[k]), supports=frozenset(supports[k]))
        for k in range(m)
    ]

    bw = rng.uniform(
        params.mean_bandwidth * (1 - params.het_bandwidth),
        params.mean_bandwidth * (1 + params.het_bandwidth),
        size=(m, m),
    )
    bw = (bw + bw.T) / 2.0  # symmetric links, as in Fig. 1(a)
    np.fill_diagonal(bw, np.inf)

    dl = rng.uniform(0.0, 2.0 * params.mean_delay, size=(m, m))
    dl = (dl + dl.T) / 2.0
    np.fill_diagonal(dl, 0.0)

    return DeviceNetwork(devices, bw, dl, name=name or f"random-net-{m}")
