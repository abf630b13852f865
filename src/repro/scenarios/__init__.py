"""Scenario engine: declarative dynamic-cluster scenarios + replay.

The adaptive side of GiPH as a subsystem: :class:`ScenarioSpec` declares
a workload stream, a network timeline and an objective;
:class:`ScenarioRegistry` names the built-in presets; and
:class:`ScenarioRunner` streams the materialized events through any
placement policy, emitting per-step :class:`AdaptationReport`s.

>>> from repro.scenarios import DEFAULT_REGISTRY, ScenarioRunner
>>> from repro.baselines import RandomTaskEftPolicy
>>> spec = DEFAULT_REGISTRY.get("edge-churn", seed=0)
>>> result = ScenarioRunner(spec).run({"task-eft": RandomTaskEftPolicy()})
>>> len(result.reports["task-eft"].steps) == result.materialized.num_events
True
"""

from .events import MaterializedScenario, ScenarioEvent, describe_events, materialize
from .registry import DEFAULT_REGISTRY, ScenarioRegistry, default_registry
from .report import AdaptationReport, StepRecord, format_adaptation_table
from .runner import ScenarioResult, ScenarioRunner
from .spec import ClusterSpec, RelocationSpec, ScenarioSpec, WorkloadSpec

__all__ = [
    "ScenarioSpec",
    "WorkloadSpec",
    "ClusterSpec",
    "RelocationSpec",
    "ScenarioEvent",
    "MaterializedScenario",
    "materialize",
    "describe_events",
    "ScenarioRegistry",
    "default_registry",
    "DEFAULT_REGISTRY",
    "ScenarioRunner",
    "ScenarioResult",
    "AdaptationReport",
    "StepRecord",
    "format_adaptation_table",
]
