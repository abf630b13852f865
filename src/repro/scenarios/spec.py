"""Declarative dynamic-cluster scenarios.

A :class:`ScenarioSpec` composes everything the replay engine needs to
reproduce one adaptive-computing situation from a single integer seed:

* a **workload stream** — how many task graphs exist up front and when
  new ones arrive (:class:`WorkloadSpec`);
* a **cluster** — the initial device network family (:class:`ClusterSpec`);
* a **network timeline** — the churn process over the cluster, including
  the soft bandwidth-drift / compute-slowdown event kinds
  (:class:`repro.devices.ChurnConfig`);
* an **objective** and a **relocation cost model**
  (:class:`RelocationSpec`) charging placement migrations.

Specs are plain frozen dataclasses that validate on construction; the
same spec and seed replay bit-identically (see ``tests/scenarios/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..devices.dynamics import ChurnConfig
from ..sim.objectives import OBJECTIVES, Objective

__all__ = ["WorkloadSpec", "ClusterSpec", "RelocationSpec", "ScenarioSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Task-graph stream: the applications the cluster must host.

    ``arrivals`` is a tuple of ``(step, count)`` pairs: ``count`` fresh
    graphs arrive at scenario step ``step`` (steps are 1-based; step 0
    is the initial state).  Arriving graphs are placed from scratch;
    existing graphs are re-placed on every event.
    """

    initial_graphs: int = 4
    num_tasks: int = 10
    connect_prob: float = 0.3
    constraint_prob: float = 0.25
    arrivals: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.initial_graphs < 1:
            raise ValueError("need at least one initial graph")
        if self.num_tasks < 1:
            raise ValueError("num_tasks must be >= 1")
        if not 0.0 <= self.connect_prob <= 1.0 or not 0.0 <= self.constraint_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        arrivals = tuple((int(s), int(c)) for s, c in self.arrivals)
        object.__setattr__(self, "arrivals", arrivals)
        for step, count in arrivals:
            if step < 1:
                raise ValueError("arrival steps are 1-based (step 0 is the initial state)")
            if count < 1:
                raise ValueError("arrival counts must be >= 1")

    @property
    def total_arrivals(self) -> int:
        return sum(count for _, count in self.arrivals)

    @property
    def last_arrival_step(self) -> int:
        return max((step for step, _ in self.arrivals), default=0)


@dataclass(frozen=True)
class ClusterSpec:
    """Initial device-network family (Appendix B.2 generator knobs)."""

    num_devices: int = 10
    support_prob: float = 0.6
    mean_speed: float = 10.0
    mean_bandwidth: float = 100.0
    mean_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if not 0.0 <= self.support_prob <= 1.0:
            raise ValueError("support_prob must be in [0, 1]")
        if self.mean_speed <= 0 or self.mean_bandwidth <= 0 or self.mean_delay < 0:
            raise ValueError("cluster means must be positive (delay non-negative)")


@dataclass(frozen=True)
class RelocationSpec:
    """Migration-cost accounting (paper §5.3 / Table 2, synthesized).

    Every task shares one relocation profile; devices share one startup
    class.  ``pipeline_frequency_hz`` additionally reports the amortized
    per-run cost when set (recurrent pipelines, Fig. 11 left).
    """

    migration_bytes: float = 4096.0
    static_init_kbytes: float = 0.0
    startup_ms: float = 5.0
    include_static_init: bool = False
    pipeline_frequency_hz: float | None = None

    def __post_init__(self) -> None:
        if self.migration_bytes < 0 or self.static_init_kbytes < 0 or self.startup_ms < 0:
            raise ValueError("relocation costs must be non-negative")
        if self.pipeline_frequency_hz is not None and self.pipeline_frequency_hz <= 0:
            raise ValueError("pipeline_frequency_hz must be positive when set")


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified dynamic-cluster scenario.

    Everything downstream — the device network, the task graphs, the
    event stream, and every policy/oracle rng — derives deterministically
    from ``seed``, so two runs of the same spec produce bit-identical
    event streams and :class:`repro.scenarios.report.AdaptationReport`s.
    """

    name: str
    seed: int = 0
    objective: str = "makespan"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    cluster: ClusterSpec = field(default_factory=ClusterSpec)
    churn: ChurnConfig = field(default_factory=lambda: ChurnConfig(min_devices=8, max_devices=10))
    relocation: RelocationSpec = field(default_factory=RelocationSpec)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {tuple(OBJECTIVES)}, got {self.objective!r}"
            )
        churn, devices = self.churn, self.cluster.num_devices
        if churn.max_devices > devices:
            raise ValueError("churn.max_devices cannot exceed the initial cluster size")
        # With no soft event and min == max a step can only remove a device
        # while the cluster is above min: a longer churn fails on any drawn
        # network.  Whether a device is removable is refused in network_churn.
        if (
            churn.soft_event_prob == 0
            and churn.min_devices == churn.max_devices
            and churn.num_changes > devices - churn.min_devices
        ):
            raise ValueError(
                f"unrunnable churn: min_devices == max_devices == {churn.min_devices} and no "
                f"soft events leave a {devices}-device cluster at most "
                f"{devices - churn.min_devices} changes, not num_changes={churn.num_changes}"
            )

    @property
    def num_steps(self) -> int:
        """Scenario steps: churn changes interleaved with late arrivals."""
        return max(self.churn.num_changes, self.workload.last_arrival_step)

    def make_objective(self) -> Objective:
        return OBJECTIVES[self.objective]()
