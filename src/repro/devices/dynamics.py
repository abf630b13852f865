"""Dynamic device clusters for the adaptivity experiment (paper Fig. 6).

"The network initially has 20 devices, and as the network evolves, some
of the devices are randomly removed and later replaced with new devices
of lower capacities (i.e., higher cost).  The total number of devices is
between 16 and 20."

Beyond the paper's add/remove churn, the process can emit two soft
degradation events used by the scenario engine (:mod:`repro.scenarios`):
``bandwidth-drift`` (every link touching one device loses bandwidth) and
``compute-slowdown`` (one device's speed drops), modeling congestion and
thermal/battery throttling on otherwise stable clusters.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .network import Device, DeviceNetwork

__all__ = ["ChurnConfig", "ChurnEvent", "network_churn"]


@dataclass(frozen=True)
class ChurnConfig:
    """Parameters of the churn process.

    Attributes
    ----------
    min_devices / max_devices: bounds on the cluster size (16-20 in §5).
    capacity_decay: multiplicative speed/bandwidth factor applied to each
        replacement device (< 1 models battery-conserving devices).
    num_changes: length of the generated change sequence.
    bandwidth_drift_prob: per-step probability of a ``bandwidth-drift``
        event instead of an add/remove (links touching one device are
        scaled by a factor drawn from ``drift_range``).
    compute_slowdown_prob: per-step probability of a ``compute-slowdown``
        event (one device's speed is scaled by a factor drawn from
        ``slowdown_range``).
    drift_range / slowdown_range: (low, high) factor intervals; values
        below 1 degrade, above 1 recover.
    target: which device soft events hit — "random" picks uniformly,
        "fastest" always degrades the highest-speed device (the
        adversarial case: the device policies lean on keeps failing).
    """

    min_devices: int = 16
    max_devices: int = 20
    capacity_decay: float = 0.7
    num_changes: int = 8
    bandwidth_drift_prob: float = 0.0
    compute_slowdown_prob: float = 0.0
    drift_range: tuple[float, float] = (0.5, 0.9)
    slowdown_range: tuple[float, float] = (0.5, 0.9)
    target: str = "random"

    def __post_init__(self) -> None:
        if not 1 <= self.min_devices <= self.max_devices:
            raise ValueError("need 1 <= min_devices <= max_devices")
        if not 0 < self.capacity_decay <= 1:
            raise ValueError("capacity_decay must be in (0, 1]")
        if self.num_changes < 0:
            raise ValueError("num_changes must be non-negative")
        if not 0 <= self.bandwidth_drift_prob <= 1 or not 0 <= self.compute_slowdown_prob <= 1:
            raise ValueError("event probabilities must be in [0, 1]")
        if self.bandwidth_drift_prob + self.compute_slowdown_prob > 1:
            raise ValueError("bandwidth_drift_prob + compute_slowdown_prob must be <= 1")
        for label, (lo, hi) in (("drift", self.drift_range), ("slowdown", self.slowdown_range)):
            if not 0 < lo <= hi:
                raise ValueError(f"{label}_range must satisfy 0 < low <= high")
        if self.target not in ("random", "fastest"):
            raise ValueError("target must be 'random' or 'fastest'")

    @property
    def soft_event_prob(self) -> float:
        return self.bandwidth_drift_prob + self.compute_slowdown_prob


@dataclass(frozen=True)
class ChurnEvent:
    """One network change: the new network plus what happened.

    ``kind`` is one of ``"add"``, ``"remove"``, ``"bandwidth-drift"`` or
    ``"compute-slowdown"``; ``factor`` carries the multiplicative scale
    of the soft (drift/slowdown) kinds and is ``None`` for add/remove.
    """

    network: DeviceNetwork
    kind: str
    uid: int  # device removed, added, or degraded
    step: int
    factor: float | None = None


def network_churn(
    initial: DeviceNetwork, config: ChurnConfig, rng: np.random.Generator
) -> Iterator[ChurnEvent]:
    """Yield a sequence of network changes starting from ``initial``.

    Removals never orphan a hardware type (some device supporting each
    type always remains) and additions insert fresh devices whose
    capacity decays with each generation, following the paper's
    "replaced with new devices of lower capacities" protocol.  With the
    soft-event probabilities at their 0 default the rng draw sequence is
    identical to the original add/remove-only process, so existing
    seeded experiments replay bit-identically.
    """
    net = initial
    next_uid = max(d.uid for d in net.devices) + 1
    generation = 0

    def removable(n: DeviceNetwork) -> list[int]:
        """uids whose removal keeps every hardware type covered."""
        support = Counter(t for d in n.devices for t in d.supports)
        return [d.uid for d in n.devices if all(support[t] > 1 for t in d.supports)]

    def victim(n: DeviceNetwork) -> Device:
        if config.target == "fastest":
            return max(n.devices, key=lambda d: (d.speed, d.uid))
        return n.devices[int(rng.integers(0, n.num_devices))]

    def drift_event(step: int) -> ChurnEvent:
        nonlocal net
        device = victim(net)
        factor = float(rng.uniform(*config.drift_range))
        net = net.with_bandwidth_scaled(factor, uid=device.uid)
        return ChurnEvent(net, "bandwidth-drift", device.uid, step, factor)

    def slowdown_event(step: int) -> ChurnEvent:
        nonlocal net
        device = victim(net)
        factor = float(rng.uniform(*config.slowdown_range))
        net = net.with_device_speed(device.uid, max(device.speed * factor, 1e-6))
        return ChurnEvent(net, "compute-slowdown", device.uid, step, factor)

    for step in range(config.num_changes):
        if config.soft_event_prob > 0:
            draw = rng.random()
            if draw < config.bandwidth_drift_prob:
                yield drift_event(step)
                continue
            if draw < config.soft_event_prob:
                yield slowdown_event(step)
                continue

        can_remove = net.num_devices > config.min_devices and removable(net)
        must_add = net.num_devices < config.min_devices
        can_add = net.num_devices < config.max_devices

        if not (must_add or can_add or can_remove):
            # Fixed-membership cluster (min == max, or nothing removable):
            # no hard move exists, so the step degrades instead of churning.
            if config.soft_event_prob <= 0:
                raise ValueError(
                    "network_churn: no add/remove possible (fixed membership or "
                    "no removable device) and soft-event probabilities are 0"
                )
            if rng.random() * config.soft_event_prob < config.bandwidth_drift_prob:
                yield drift_event(step)
            else:
                yield slowdown_event(step)
            continue

        if must_add or (can_add and (not can_remove or rng.random() < 0.5)):
            generation += 1
            decay = config.capacity_decay**generation
            template = net.devices[int(rng.integers(0, net.num_devices))]
            device = Device(
                uid=next_uid,
                speed=max(template.speed * decay, 1e-6),
                supports=template.supports,
                compute_power=template.compute_power / max(decay, 1e-6),
            )
            mean_bw = float(
                np.mean(net.bandwidth[np.isfinite(net.bandwidth)]) if net.num_devices > 1 else 100.0
            )
            mean_dl = float(np.mean(net.delay)) if net.num_devices > 1 else 1.0
            net = net.with_device(device, bandwidth_to=mean_bw * decay, delay_to=mean_dl / max(decay, 1e-6))
            next_uid += 1
            yield ChurnEvent(net, "add", device.uid, step)
        else:
            # One bounded draw: the draw ``rng.choice(can_remove)`` makes.
            uid = can_remove[int(rng.integers(0, len(can_remove)))]
            net = net.without_device(uid)
            yield ChurnEvent(net, "remove", uid, step)
