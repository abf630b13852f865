"""Agent checkpointing tests."""

import json

import numpy as np
import pytest

from repro.core import GiPHAgent
from repro.core.gnn import make_embedding
from repro.core.serialization import embedding_kind_of, load_agent, save_agent


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
