"""Reference scenario-stream generators: the draw-by-draw oracles.

``generate_task_graph`` and ``network_churn`` as first written, with
``Generator.choice`` on lists, per-call scalar ``uniform`` draws and the
quadratic ``removable`` scan.  Every seeded scenario, report and
benchmark in the repo starts from these streams, so the library's
versions must return equal objects *and* leave the rng at the same
state (``tests/scenarios/test_stream_digests.py``).
"""

from __future__ import annotations

import numpy as np

from repro.devices import ChurnConfig, ChurnEvent, Device, DeviceNetwork
from repro.graphs import TaskGraph, TaskGraphParams


def sample_levels(params: TaskGraphParams, rng: np.random.Generator) -> list[int]:
    m = params.num_tasks
    if m <= 2:
        return [1] * m
    mean_depth = np.sqrt(m) / params.shape
    depth = int(np.clip(round(rng.uniform(0.5 * mean_depth, 1.5 * mean_depth)), 2, m))
    interior = m - 2
    num_interior_levels = max(depth - 2, 0)
    if num_interior_levels == 0 or interior == 0:
        widths = [1] + [1] * interior + [1]
        return widths[: 2 + interior] if interior else [1, 1]
    mean_width = params.shape * np.sqrt(m)
    raw = rng.uniform(0.5 * mean_width, 1.5 * mean_width, size=num_interior_levels)
    raw = np.maximum(raw, 1.0)
    widths = np.maximum(np.round(raw * interior / raw.sum()).astype(int), 1)
    while widths.sum() > interior:
        widths[int(np.argmax(widths))] -= 1
        widths = np.maximum(widths, 1)
        if widths.sum() <= interior and (widths == 1).all():
            break
    while widths.sum() < interior:
        widths[int(np.argmin(widths))] += 1
    return [1] + list(widths) + [1]


def generate_task_graph(
    params: TaskGraphParams, rng: np.random.Generator, name: str | None = None
) -> TaskGraph:
    widths = sample_levels(params, rng)
    levels: list[list[int]] = []
    next_id = 0
    for w in widths:
        levels.append(list(range(next_id, next_id + w)))
        next_id += w
    n = next_id

    lo_c = params.mean_compute * (1 - params.het_compute)
    hi_c = params.mean_compute * (1 + params.het_compute)
    compute = rng.uniform(lo_c, hi_c, size=n)
    lo_b = params.mean_data * (1 - params.het_data)
    hi_b = params.mean_data * (1 + params.het_data)
    edges: dict[tuple[int, int], float] = {}

    def add_edge(u: int, v: int) -> None:
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(lo_b, hi_b))

    for li, upper in enumerate(levels[:-1]):
        for lower in levels[li + 1 :]:
            for u in upper:
                for v in lower:
                    if rng.random() < params.connect_prob:
                        add_edge(u, v)
    for li in range(1, len(levels)):
        earlier = [u for lvl in levels[:li] for u in lvl]
        for v in levels[li]:
            if not any((u, v) in edges for u in earlier):
                add_edge(int(rng.choice(earlier)), v)
    for li in range(len(levels) - 1):
        later = [v for lvl in levels[li + 1 :] for v in lvl]
        for u in levels[li]:
            if not any((u, v) in edges for v in later):
                add_edge(u, int(rng.choice(later)))

    requirements = np.zeros(n, dtype=int)
    if params.num_hardware_types > 1:
        constrained = rng.random(n) < params.constraint_prob
        requirements[constrained] = rng.integers(
            1, params.num_hardware_types, size=int(constrained.sum())
        )
    return TaskGraph(
        compute=tuple(compute),
        edges=edges,
        requirements=tuple(int(r) for r in requirements),
        name=name or f"random-dag-{n}",
    )


def network_churn(initial: DeviceNetwork, config: ChurnConfig, rng: np.random.Generator):
    net = initial
    next_uid = max(d.uid for d in net.devices) + 1
    generation = 0

    def removable(n: DeviceNetwork) -> list[int]:
        out = []
        for d in n.devices:
            others = [o for o in n.devices if o.uid != d.uid]
            covered = set().union(*(o.supports for o in others)) if others else set()
            if d.supports <= covered:
                out.append(d.uid)
        return out

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
            if config.soft_event_prob <= 0:
                raise ValueError("network_churn: no add/remove possible")
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
            net = net.with_device(
                device, bandwidth_to=mean_bw * decay, delay_to=mean_dl / max(decay, 1e-6)
            )
            next_uid += 1
            yield ChurnEvent(net, "add", device.uid, step)
        else:
            uid = int(rng.choice(can_remove))
            net = net.without_device(uid)
            yield ChurnEvent(net, "remove", uid, step)
