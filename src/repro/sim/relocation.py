"""Task relocation cost model (paper §5.3, Table 2).

Relocating a task from one device to another incurs (a) migrating its
dynamic state over the network and (b) a startup delay on the target.
Because recurrent pipelines amortize a single relocation over many future
runs, the effective cost scales inversely with the pipeline frequency:
higher-frequency pipelines justify more expensive relocations (Fig. 11
left).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..devices.network import DeviceNetwork

__all__ = ["TaskRelocationProfile", "RelocationCostModel"]


@dataclass(frozen=True)
class TaskRelocationProfile:
    """Per-task relocation measurements (the columns of Table 2).

    Attributes
    ----------
    migration_bytes: dynamic state shipped between devices.
    static_init_kbytes: static initialization data fetched on the target
        (models, calibration) — shipped once, included in migration.
    startup_ms_by_type: startup time per device *type* key.
    """

    migration_bytes: float
    static_init_kbytes: float
    startup_ms_by_type: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.migration_bytes < 0 or self.static_init_kbytes < 0:
            raise ValueError("relocation data sizes must be non-negative")
        if any(v < 0 for v in self.startup_ms_by_type.values()):
            raise ValueError("startup times must be non-negative")

    def startup_ms(self, device_type: str) -> float:
        if device_type not in self.startup_ms_by_type:
            raise KeyError(f"no startup measurement for device type {device_type!r}")
        return float(self.startup_ms_by_type[device_type])


class RelocationCostModel:
    """Relocation cost = data migration time + target startup time.

    Parameters
    ----------
    profiles: task name -> :class:`TaskRelocationProfile`.
    device_types: device uid -> type key (e.g. "A"/"B"/"C").
    include_static_init: whether the static initialization data must also
        travel (cold target); the paper's Table 2 separates it, so both
        accountings are supported.
    """

    def __init__(
        self,
        profiles: Mapping[str, TaskRelocationProfile],
        device_types: Mapping[int, str],
        include_static_init: bool = False,
    ) -> None:
        self.profiles = dict(profiles)
        self.device_types = dict(device_types)
        self.include_static_init = include_static_init

    def cost_ms(
        self,
        task_kind: str,
        network: DeviceNetwork,
        src_uid: int,
        dst_uid: int,
    ) -> float:
        """Milliseconds to move ``task_kind`` from ``src`` to ``dst``."""
        if task_kind not in self.profiles:
            raise KeyError(f"no relocation profile for task kind {task_kind!r}")
        if src_uid == dst_uid:
            return 0.0
        profile = self.profiles[task_kind]
        src, dst = network.index_of(src_uid), network.index_of(dst_uid)
        payload = profile.migration_bytes
        if self.include_static_init:
            payload += profile.static_init_kbytes * 1024.0
        bw = network.bandwidth[src, dst]  # bytes/ms in case-study units
        migration_ms = 0.0 if bw == float("inf") else payload / bw
        migration_ms += network.delay[src, dst]
        return migration_ms + profile.startup_ms(self.device_types[dst_uid])
