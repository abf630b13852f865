"""Named scenario presets and the registry that serves them.

The presets cover the qualitative families the paper motivates —
stable serving, Fig. 6-style churn, soft degradation (bandwidth and
compute), bursty workload arrival, a traffic-case-study-shaped edge
cluster, an adversarial timeline that keeps knocking out the fastest
device, and an everything-at-once stress mix.  Sizes are deliberately
modest so every preset replays end-to-end in seconds; scale up by
``dataclasses.replace``-ing the spec a registry hands back.
"""

from __future__ import annotations

import dataclasses

from ..devices.dynamics import ChurnConfig
from .spec import ClusterSpec, RelocationSpec, ScenarioSpec, WorkloadSpec

__all__ = ["ScenarioRegistry", "DEFAULT_REGISTRY", "default_registry"]


class ScenarioRegistry:
    """Name -> :class:`ScenarioSpec` lookup; :meth:`names` lists the presets."""

    def __init__(self) -> None:
        self._specs: dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Add ``spec`` under its own name; refuses overwrites."""
        if spec.name in self._specs:
            raise ValueError(f"scenario {spec.name!r} already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str, seed: int | None = None) -> ScenarioSpec:
        """Fetch a preset, optionally re-seeded (specs are immutable)."""
        if name not in self._specs:
            known = ", ".join(sorted(self._specs)) or "<none>"
            raise KeyError(f"unknown scenario {name!r}; registered: {known}")
        spec = self._specs[name]
        if seed is not None:
            spec = dataclasses.replace(spec, seed=seed)
        return spec

    def names(self) -> list[str]:
        return sorted(self._specs)


def default_registry() -> ScenarioRegistry:
    """Build the built-in preset registry (a fresh, mutable copy)."""
    registry = ScenarioRegistry()

    registry.register(
        ScenarioSpec(
            name="stable-cluster",
            description=(
                "Static 10-device cluster absorbing a steady trickle of new "
                "applications — the pure serving baseline: no network events, "
                "all adaptation is workload-driven."
            ),
            workload=WorkloadSpec(initial_graphs=3, num_tasks=10, arrivals=((2, 1), (4, 1), (6, 1), (8, 1))),
            cluster=ClusterSpec(num_devices=10, support_prob=0.7),
            churn=ChurnConfig(min_devices=10, max_devices=10, num_changes=0),
        )
    )

    registry.register(
        ScenarioSpec(
            name="edge-churn",
            description=(
                "The paper's Fig. 6 protocol: devices drop out and are replaced "
                "by lower-capacity generations, cluster size bouncing between "
                "8 and 10."
            ),
            workload=WorkloadSpec(initial_graphs=4, num_tasks=10),
            cluster=ClusterSpec(num_devices=10, support_prob=0.7),
            churn=ChurnConfig(min_devices=8, max_devices=10, capacity_decay=0.7, num_changes=10),
        )
    )

    registry.register(
        ScenarioSpec(
            name="bandwidth-degradation",
            description=(
                "Fixed membership, decaying links: every event scales the "
                "bandwidth of one device's links by 0.5-0.9 — placements must "
                "retreat toward communication locality."
            ),
            workload=WorkloadSpec(initial_graphs=4, num_tasks=10),
            cluster=ClusterSpec(num_devices=8, support_prob=0.7),
            churn=ChurnConfig(
                min_devices=8,
                max_devices=8,
                num_changes=8,
                bandwidth_drift_prob=1.0,
                drift_range=(0.5, 0.9),
            ),
        )
    )

    registry.register(
        ScenarioSpec(
            name="compute-brownout",
            description=(
                "Fixed membership, throttling devices: every event slows one "
                "device to 50-90% of its speed (thermal/battery brownouts)."
            ),
            workload=WorkloadSpec(initial_graphs=4, num_tasks=10),
            cluster=ClusterSpec(num_devices=8, support_prob=0.7),
            churn=ChurnConfig(
                min_devices=8,
                max_devices=8,
                num_changes=8,
                compute_slowdown_prob=1.0,
                slowdown_range=(0.5, 0.9),
            ),
        )
    )

    registry.register(
        ScenarioSpec(
            name="flash-crowd",
            description=(
                "A burst of application arrivals (3 then 4 graphs within two "
                "steps) hits a mildly churning cluster — placement throughput "
                "and evaluator reuse dominate."
            ),
            workload=WorkloadSpec(
                initial_graphs=2, num_tasks=8, arrivals=((2, 3), (3, 4), (6, 1))
            ),
            cluster=ClusterSpec(num_devices=10, support_prob=0.7),
            churn=ChurnConfig(min_devices=9, max_devices=10, num_changes=6, capacity_decay=0.9),
        )
    )

    registry.register(
        ScenarioSpec(
            name="traffic-casestudy",
            description=(
                "Shaped after the §5.3 CAV pipeline: a roadside cluster where "
                "vehicle devices stream past — rapid join/leave at near-full "
                "capacity, modest decay, pipelines amortizing relocations at "
                "10 Hz."
            ),
            workload=WorkloadSpec(initial_graphs=3, num_tasks=12, constraint_prob=0.4),
            cluster=ClusterSpec(num_devices=12, support_prob=0.8, mean_delay=2.0),
            churn=ChurnConfig(min_devices=9, max_devices=12, capacity_decay=0.9, num_changes=12),
            relocation=RelocationSpec(
                migration_bytes=16384.0,
                static_init_kbytes=128.0,
                startup_ms=20.0,
                pipeline_frequency_hz=10.0,
            ),
        )
    )

    registry.register(
        ScenarioSpec(
            name="adversarial-hot-device",
            description=(
                "Worst-case soft degradation: every event throttles or "
                "congests the *fastest* remaining device — exactly the one "
                "greedy placements pile onto."
            ),
            workload=WorkloadSpec(initial_graphs=4, num_tasks=10),
            cluster=ClusterSpec(num_devices=8, support_prob=0.7),
            churn=ChurnConfig(
                min_devices=8,
                max_devices=8,
                num_changes=8,
                bandwidth_drift_prob=0.4,
                compute_slowdown_prob=0.6,
                drift_range=(0.3, 0.6),
                slowdown_range=(0.2, 0.5),
                target="fastest",
            ),
        )
    )

    registry.register(
        ScenarioSpec(
            name="mixed-dynamics",
            description=(
                "Everything at once: churn down to half capacity with steep "
                "generation decay, soft degradations, and mid-stream arrivals."
            ),
            workload=WorkloadSpec(initial_graphs=3, num_tasks=10, arrivals=((3, 1), (7, 2))),
            cluster=ClusterSpec(num_devices=10, support_prob=0.7),
            churn=ChurnConfig(
                min_devices=6,
                max_devices=10,
                capacity_decay=0.6,
                num_changes=12,
                bandwidth_drift_prob=0.2,
                compute_slowdown_prob=0.2,
            ),
        )
    )

    return registry


#: The shared read-mostly default registry (CLI, experiments, tests).
DEFAULT_REGISTRY = default_registry()
