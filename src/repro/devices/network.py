"""Device network: the heterogeneous target cluster (paper §3).

Devices have compute features (speed, supported hardware types) and every
device pair has communication link features (bandwidth, delay).  Devices
are fully connected; missing physical links are modeled by very high
communication cost, as the paper prescribes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Device", "DeviceNetwork"]


@dataclass(frozen=True)
class Device:
    """One compute device.

    Attributes
    ----------
    uid: stable identifier, preserved across network changes (churn).
    speed: compute speed SP_k; execution time of task i is C_i / SP_k.
    supports: hardware types this device supports.  Type 0 (generic
        compute) is always supported.
    compute_power / idle_power: watts, used by the energy objective.
    position: optional (x, y) coordinates for distance-based comm models.
    """

    uid: int
    speed: float
    supports: frozenset[int] = frozenset({0})
    compute_power: float = 1.0
    idle_power: float = 0.1
    position: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ValueError(f"device {self.uid}: speed must be positive")
        object.__setattr__(self, "supports", frozenset(self.supports) | {0})

    def supports_requirement(self, requirement: int) -> bool:
        return requirement in self.supports


class DeviceNetwork:
    """A cluster of interconnected devices.

    Internally devices occupy dense indices ``0..m-1`` (the order of the
    ``devices`` sequence); the stable ``uid`` survives add/remove so that
    placements can be carried across network changes.

    Parameters
    ----------
    devices: device descriptors.
    bandwidth: (m, m) matrix, BW_kl; ``inf`` on the diagonal (local data
        movement is free, Appendix B.2).
    delay: (m, m) matrix, DL_kl; 0 on the diagonal.
    """

    def __init__(
        self,
        devices: Sequence[Device],
        bandwidth: np.ndarray,
        delay: np.ndarray,
        name: str = "device-network",
    ) -> None:
        if len(devices) == 0:
            raise ValueError("device network must contain at least one device")
        uids = [d.uid for d in devices]
        if len(set(uids)) != len(uids):
            raise ValueError("device uids must be unique")
        m = len(devices)
        bandwidth = np.asarray(bandwidth, dtype=np.float64)
        delay = np.asarray(delay, dtype=np.float64)
        if bandwidth.shape != (m, m) or delay.shape != (m, m):
            raise ValueError("bandwidth and delay must be (m, m) matrices")
        if (bandwidth <= 0).any():
            raise ValueError("bandwidths must be positive (use np.inf for local)")
        if (delay < 0).any():
            raise ValueError("delays must be non-negative")
        if not np.isinf(np.diag(bandwidth)).all():
            raise ValueError("diagonal bandwidth must be inf (local transfer is free)")
        if np.diag(delay).any():
            raise ValueError("diagonal delay must be zero")

        self.devices: tuple[Device, ...] = tuple(devices)
        self.bandwidth = bandwidth
        self.delay = delay
        self.name = name
        self._uid_to_index: dict[int, int] = {d.uid: i for i, d in enumerate(self.devices)}
        self.speeds = np.array([d.speed for d in self.devices])
        # 1/BW with exact zeros on the (infinite-bandwidth) diagonal: the
        # one table every cost expression (B_ij / BW_kl) reads.
        with np.errstate(divide="ignore"):
            self.inv_bandwidth = np.where(np.isinf(bandwidth), 0.0, 1.0 / bandwidth)
        # The network is immutable, so D_i depends on the requirement alone.
        self._feasible: dict[int, tuple[int, ...]] = {}

    # -- lookups ---------------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def index_of(self, uid: int) -> int:
        return self._uid_to_index[uid]

    def __contains__(self, uid: int) -> bool:
        return uid in self._uid_to_index

    def feasible_devices(self, requirement: int) -> tuple[int, ...]:
        """Dense indices of devices that support ``requirement`` (the set D_i)."""
        feasible = self._feasible.get(requirement)
        if feasible is None:
            feasible = self._feasible[requirement] = tuple(
                k for k, d in enumerate(self.devices) if d.supports_requirement(requirement)
            )
        return feasible

    def feasible_sets(self, requirements: Iterable[int]) -> list[tuple[int, ...]]:
        """Feasible device sets for every task requirement, with validation."""
        sets = []
        for i, req in enumerate(requirements):
            feas = self.feasible_devices(req)
            if not feas:
                raise ValueError(f"task {i}: no device supports hardware type {req}")
            sets.append(feas)
        return sets

    # -- network transforms (for churn) ------------------------------------------

    def without_device(self, uid: int) -> "DeviceNetwork":
        """Return a copy with device ``uid`` removed."""
        if uid not in self._uid_to_index:
            raise KeyError(f"device uid {uid} not in network")
        if self.num_devices == 1:
            raise ValueError("cannot remove the last device")
        keep = [i for i, d in enumerate(self.devices) if d.uid != uid]
        return DeviceNetwork(
            [self.devices[i] for i in keep],
            self.bandwidth[np.ix_(keep, keep)],
            self.delay[np.ix_(keep, keep)],
            name=self.name,
        )

    def with_device(
        self,
        device: Device,
        bandwidth_to: Mapping[int, float] | float,
        delay_to: Mapping[int, float] | float,
    ) -> "DeviceNetwork":
        """Return a copy with ``device`` appended.

        ``bandwidth_to`` / ``delay_to`` give link features to each existing
        device uid (or one scalar for all).  Links are symmetric.
        """
        if device.uid in self._uid_to_index:
            raise ValueError(f"device uid {device.uid} already present")
        m = self.num_devices
        bw = np.full((m + 1, m + 1), np.inf)
        dl = np.zeros((m + 1, m + 1))
        bw[:m, :m] = self.bandwidth
        dl[:m, :m] = self.delay
        for i, existing in enumerate(self.devices):
            b = bandwidth_to if np.isscalar(bandwidth_to) else bandwidth_to[existing.uid]
            d = delay_to if np.isscalar(delay_to) else delay_to[existing.uid]
            bw[m, i] = bw[i, m] = b
            dl[m, i] = dl[i, m] = d
        bw[m, m] = np.inf
        dl[m, m] = 0.0
        return DeviceNetwork([*self.devices, device], bw, dl, name=self.name)

    def with_device_speed(self, uid: int, speed: float) -> "DeviceNetwork":
        """Return a copy with device ``uid``'s compute speed replaced."""
        if uid not in self._uid_to_index:
            raise KeyError(f"device uid {uid} not in network")
        if speed <= 0:
            raise ValueError("speed must be positive")
        devices = [
            dataclasses.replace(d, speed=float(speed)) if d.uid == uid else d
            for d in self.devices
        ]
        return DeviceNetwork(devices, self.bandwidth, self.delay, name=self.name)

    def with_bandwidth_scaled(self, factor: float, uid: int | None = None) -> "DeviceNetwork":
        """Return a copy with off-diagonal bandwidths multiplied by ``factor``.

        With ``uid`` only the links touching that device are scaled (a
        congested or recovering uplink); without it every link drifts.
        The (infinite) diagonal is untouched — local transfer stays free.
        """
        if factor <= 0:
            raise ValueError("bandwidth factor must be positive")
        bw = self.bandwidth.copy()
        off = ~np.eye(self.num_devices, dtype=bool)
        if uid is None:
            bw[off] *= factor
        else:
            k = self.index_of(uid)
            touches = np.zeros_like(off)
            touches[k, :] = touches[:, k] = True
            bw[touches & off] *= factor
        return DeviceNetwork(self.devices, bw, self.delay, name=self.name)

    def __repr__(self) -> str:
        return f"DeviceNetwork(name={self.name!r}, devices={self.num_devices})"
