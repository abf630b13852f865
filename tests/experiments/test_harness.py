"""Unit tests for the experiment harness: config, datasets, runner, reporting."""

import numpy as np
import pytest

from repro.experiments import (
    PAPER,
    QUICK,
    HeftPolicy,
    active_scale,
    average_curves,
    evaluate_policies,
    multi_network_dataset,
    single_network_dataset,
    train_agent,
)
from repro.experiments.reporting import banner, format_series, format_table
from repro.baselines import RandomPlacementPolicy
from repro.sim import MakespanObjective, TotalCostObjective


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConfig:
    def test_presets_differ(self):
        assert PAPER.episodes > QUICK.episodes
        assert PAPER.train_graphs > QUICK.train_graphs

    def test_active_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert active_scale() is PAPER
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert active_scale() is QUICK
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError):
            active_scale()

    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert active_scale() is QUICK


class TestDatasets:
    def test_single_network_shares_network(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng())
        networks = {id(p.network) for p in ds.train + ds.test}
        assert len(networks) == 1
        assert len(ds.train) == micro_scale.train_graphs
        assert len(ds.test) == micro_scale.test_cases

    def test_multi_network_uses_several(self, micro_scale):
        ds = multi_network_dataset(micro_scale, rng())
        names = {p.network.name for p in ds.train + ds.test}
        assert len(names) >= 2

    def test_multi_network_varied_sizes(self, micro_scale):
        import dataclasses

        scale = dataclasses.replace(micro_scale, num_devices=6, num_networks=4, train_graphs=6)
        ds = multi_network_dataset(scale, rng(3), vary_sizes=True)
        sizes = {p.network.num_devices for p in ds.train + ds.test}
        assert len(sizes) >= 2

    def test_problems_are_valid(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(1))
        for p in ds.train + ds.test:
            assert p.num_actions > 0
            for feas in p.feasible_sets:
                assert feas


class TestRunner:
    def test_average_curves_pads_with_final(self):
        avg = average_curves([np.array([4.0, 2.0]), np.array([6.0, 4.0, 2.0])])
        np.testing.assert_allclose(avg, [5.0, 3.0, 2.0])

    def test_average_curves_empty(self):
        with pytest.raises(ValueError):
            average_curves([])

    def test_evaluate_policies_shapes(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(2))
        result = evaluate_policies(
            {"random": RandomPlacementPolicy(), "heft": HeftPolicy()},
            ds.test,
            rng(3),
        )
        assert set(result.curves) == {"random", "heft"}
        for name in result.curves:
            assert len(result.finals[name]) == len(ds.test)
            assert (np.diff(result.curves[name]) <= 1e-9).all()
            assert result.mean_final(name) >= 0.99  # SLR lower bound

    def test_evaluate_with_noise(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(4))
        result = evaluate_policies(
            {"random": RandomPlacementPolicy()}, ds.test, rng(5), noise=0.2
        )
        assert np.isfinite(list(result.finals["random"])).all()

    def test_evaluate_custom_objective_unnormalized(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(6))
        result = evaluate_policies(
            {"random": RandomPlacementPolicy()},
            ds.test,
            rng(7),
            normalize_slr=False,
            objective=TotalCostObjective(),
        )
        assert all(v > 0 for v in result.finals["random"])

    def test_heft_policy_constant_curve(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(8))
        problem = ds.test[0]
        trace = HeftPolicy().search(
            problem, MakespanObjective(), [f[0] for f in problem.feasible_sets], 4, rng(9)
        )
        assert len(set(trace.values)) == 1

    def test_train_giph_smoke(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(10))
        agent = train_agent("giph", ds.train, rng(11), episodes=2, embedding="giph-ne-pol")
        assert agent.policy is not None

    def test_train_agent_kinds(self, micro_scale):
        ds = single_network_dataset(micro_scale, rng(10))
        assert train_agent("task-eft", ds.train, rng(11), episodes=1).name == "giph-task-eft"
        assert train_agent("placeto", ds.train, rng(11), episodes=1).name == "placeto"
        with pytest.raises(ValueError, match="unknown agent kind"):
            train_agent("rnn", ds.train, rng(11), episodes=1)
        mixed = [*ds.train, *multi_network_dataset(micro_scale, rng(12), vary_sizes=True).train]
        if len({p.network.num_devices for p in mixed}) > 1:
            with pytest.raises(ValueError, match="fixed device count"):
                train_agent("placeto", mixed, rng(11), episodes=1)


class TestReporting:
    def test_banner(self):
        b = banner("Hello")
        assert "Hello" in b and "=" in b

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert "1.500" in text and "2.250" in text

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_format_series_subsampling(self):
        text = format_series({"a": list(range(10))}, every=4)
        rows = [l for l in text.splitlines() if l and l[0].isdigit()]
        # rows at x = 0, 4, 8 plus the forced final point x = 9
        assert len(rows) == 4
        assert rows[-1].startswith("9")

    def test_format_series_unequal_lengths(self):
        text = format_series({"a": [1.0, 2.0], "b": [5.0]})
        assert "5.000" in text
