"""Agent checkpointing tests."""

import json

import numpy as np
import pytest

from repro.core import GiPHAgent, GpNetBuilder
from repro.core.gnn import TwoWayMessagePassing
from repro.core.serialization import embedding_kind_of, load_agent, save_agent


ALL_KINDS = ["giph", "giph-3", "giph-5", "giph-ne", "graphsage-ne", "giph-ne-pol"]


def rewrite_meta(path, **changes):
    """Rewrite a checkpoint's metadata record in place (``None`` drops a key)."""
    with np.load(path) as archive:
        arrays = dict(archive)
    meta = json.loads(arrays["__meta__"].tobytes())
    for key, value in changes.items():
        meta.pop(key, None)
        if value is not None:
            meta[key] = value
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)
    return path


class TestSerialization:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip_all_kinds(self, tmp_path, diamond_problem, kind):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=kind)
        path = save_agent(agent, tmp_path / "agent.npz")
        loaded = load_agent(path, np.random.default_rng(3))
        assert embedding_kind_of(loaded) == kind
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

    def test_roundtrip_keeps_sum_aggregation(self, tmp_path, diamond_problem):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=TwoWayMessagePassing(rng, aggregation="sum"))
        loaded = load_agent(save_agent(agent, tmp_path / "agent.npz"), np.random.default_rng(3))
        assert loaded.embedding.forward_pass.aggregation == "sum"
        net = GpNetBuilder(diamond_problem).build([0, 0, 0, 2])
        assert agent.embedding(net).data.tobytes() == loaded.embedding(net).data.tobytes()

    def test_checkpoint_without_aggregation_loads_as_mean(self, tmp_path):
        rng = np.random.default_rng(2)
        agent = GiPHAgent(rng, embedding=TwoWayMessagePassing(rng, aggregation="sum"))
        path = rewrite_meta(save_agent(agent, tmp_path / "agent.npz"), aggregation=None)
        loaded = load_agent(path, np.random.default_rng(3))
        assert loaded.embedding.forward_pass.aggregation == "mean"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_older_checkpoints_load(self, tmp_path, diamond_problem, kind):
        """Older checkpoints record ``"aggregation": "mean"`` for every kind."""
        agent = GiPHAgent(np.random.default_rng(2), embedding=kind)
        path = rewrite_meta(save_agent(agent, tmp_path / "agent.npz"), aggregation="mean")
        loaded = load_agent(path, np.random.default_rng(3))
        assert embedding_kind_of(loaded) == kind
        net = GpNetBuilder(diamond_problem).build([0, 0, 0, 2])
        assert agent.embedding(net).data.tobytes() == loaded.embedding(net).data.tobytes()

    @pytest.mark.parametrize("kind", [k for k in ALL_KINDS if k != "giph"])
    def test_only_giph_may_sum(self, tmp_path, kind):
        agent = GiPHAgent(np.random.default_rng(2), embedding=kind)
        path = rewrite_meta(save_agent(agent, tmp_path / "agent.npz"), aggregation="sum")
        with pytest.raises(ValueError, match=rf"{kind!r} embedding aggregates by mean, not 'sum'"):
            load_agent(path, np.random.default_rng(3))
