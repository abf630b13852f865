"""Stopping criteria and agent checkpointing tests."""

import json

import numpy as np
import pytest

from repro.core import (
    CombinedCriterion,
    FixedBudget,
    GiPHAgent,
    Patience,
    RelativeImprovement,
    TargetValue,
    run_search,
)
from repro.core.gnn import make_embedding
from repro.core.serialization import embedding_kind_of, load_agent, save_agent
from repro.sim import MakespanObjective


class TestStoppingCriteria:
    def test_fixed_budget(self):
        c = FixedBudget(steps=3)
        assert not c.should_stop([5.0, 4.0, 3.0], [5.0, 4.0, 3.0])  # 2 steps
        assert c.should_stop([5.0, 4.0, 3.0, 3.0], [5.0, 4.0, 3.0, 3.0])

    def test_fixed_budget_validation(self):
        with pytest.raises(ValueError):
            FixedBudget(steps=0)

    def test_patience_fires_on_stall(self):
        c = Patience(patience=2)
        best = [5.0, 4.0, 4.0, 4.0]
        assert c.should_stop([5.0, 4.0, 4.5, 4.2], best)

    def test_patience_resets_on_improvement(self):
        c = Patience(patience=2)
        best = [5.0, 4.0, 4.0, 3.0]
        assert not c.should_stop([5.0, 4.0, 4.5, 3.0], best)

    def test_patience_min_steps(self):
        c = Patience(patience=1, min_steps=5)
        assert not c.should_stop([5.0, 5.0], [5.0, 5.0])

    def test_relative_improvement(self):
        c = RelativeImprovement(threshold=0.05, window=2)
        # 1% improvement over the window -> stop
        assert c.should_stop([100.0, 100, 100, 99], [100.0, 100.0, 99.5, 99.0])
        # 50% improvement -> keep going
        assert not c.should_stop([100.0, 60, 55, 50], [100.0, 100.0, 55.0, 50.0])

    def test_target_value(self):
        c = TargetValue(target=2.0)
        assert c.should_stop([3.0], [3.0]) is False
        assert c.should_stop([3.0, 1.9], [3.0, 1.9])

    def test_combined_or_semantics(self):
        c = CombinedCriterion((TargetValue(0.0), FixedBudget(2)))
        assert not c.should_stop([5.0, 4.0], [5.0, 4.0])
        assert c.should_stop([5.0, 4.0, 3.0], [5.0, 4.0, 3.0])

    def test_combined_empty_rejected(self):
        with pytest.raises(ValueError):
            CombinedCriterion(())

    def test_run_search_with_stopping(self, diamond_problem):
        rng = np.random.default_rng(0)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trace = run_search(
            agent,
            diamond_problem,
            MakespanObjective(),
            [0, 0, 0, 2],
            episode_length=50,
            stopping=Patience(patience=2),
        )
        assert trace.num_steps < 50  # stopped early

    def test_run_search_target_stops_immediately(self, diamond_problem):
        rng = np.random.default_rng(1)
        agent = GiPHAgent(rng, embedding="giph-ne-pol")
        trace = run_search(
            agent,
            diamond_problem,
            MakespanObjective(),
            [0, 0, 0, 2],
            episode_length=50,
            stopping=TargetValue(target=float("inf")),
        )
        assert trace.num_steps == 1


class TestSerialization:
    @pytest.mark.parametrize("kind", ["giph", "giph-3", "giph-ne", "graphsage-ne", "giph-ne-pol"])
    def test_roundtrip_all_kinds(self, tmp_path, diamond_problem, kind):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=kind)
        path = save_agent(agent, tmp_path / "agent.npz")
        loaded = load_agent(path, np.random.default_rng(3))
        assert embedding_kind_of(loaded) == kind
        from repro.core import GpNetBuilder

        net = GpNetBuilder(diamond_problem).build([0, 0, 0, 2])
        np.testing.assert_allclose(
            agent.embedding(net).data, loaded.embedding(net).data
        )
        mask = ~net.is_pivot
        lp1 = agent.policy.log_probs(agent.embedding(net), mask).data
        lp2 = loaded.policy.log_probs(loaded.embedding(net), mask).data
        np.testing.assert_allclose(lp1, lp2)

    def test_suffix_added(self, tmp_path):
        agent = GiPHAgent(np.random.default_rng(0), embedding="giph-ne-pol")
        path = save_agent(agent, tmp_path / "checkpoint")
        assert path.suffix == ".npz" and path.exists()

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(ValueError, match="checkpoint"):
            load_agent(path, np.random.default_rng(0))

    def test_kind_of_k_step(self):
        agent = GiPHAgent(np.random.default_rng(0), embedding="giph-7")
        assert embedding_kind_of(agent) == "giph-7"

    @pytest.mark.parametrize("kind", ["giph", "giph-3", "giph-ne", "graphsage-ne"])
    def test_roundtrip_keeps_sum_aggregation(self, tmp_path, diamond_problem, kind):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=make_embedding(kind, rng, aggregation="sum"))
        loaded = load_agent(save_agent(agent, tmp_path / "agent.npz"), np.random.default_rng(3))
        owner = getattr(loaded.embedding, "forward_pass", loaded.embedding)
        assert owner.aggregation == "sum"
        from repro.core import GpNetBuilder

        net = GpNetBuilder(diamond_problem).build([0, 0, 0, 2])
        assert agent.embedding(net).data.tobytes() == loaded.embedding(net).data.tobytes()

    def test_checkpoint_without_aggregation_loads_as_mean(self, tmp_path):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=make_embedding("giph", rng, aggregation="sum"))
        path = save_agent(agent, tmp_path / "agent.npz")
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(arrays["__meta__"].tobytes())
        meta.pop("aggregation", None)  # as written before the key existed
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        loaded = load_agent(path, np.random.default_rng(3))
        assert loaded.embedding.forward_pass.aggregation == "mean"
