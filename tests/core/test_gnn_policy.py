"""GNN variant and policy-network tests (paper §4.2.2-4.2.3, App. B.6)."""

import numpy as np
import pytest

from repro.core import (
    FeatureConfig,
    GpNetBuilder,
    ScorePolicy,
    TwoWayMessagePassing,
    augment_with_out_edge_means,
    make_embedding,
)
from repro.nn import Tensor

ALL_KINDS = ["giph", "giph-3", "giph-5", "giph-ne", "graphsage-ne", "giph-ne-pol"]


def gpnet_of(problem, placement=(0, 0, 0, 2)):
    return GpNetBuilder(problem, FeatureConfig()).build(list(placement))


class TestEmbeddings:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_output_shape(self, diamond_problem, kind):
        net = gpnet_of(diamond_problem)
        emb = make_embedding(kind, np.random.default_rng(0))
        out = emb(net)
        assert out.shape == (net.num_nodes, emb.out_dim)

    def test_giph_out_dim_matches_table4(self, diamond_problem):
        # Table 4: embedding dim 5 per direction, summary 10.
        emb = make_embedding("giph", np.random.default_rng(0))
        assert emb.out_dim == 10

    def test_state_dict_keys_are_stable(self):
        # Checkpoints are keyed by these names (and rng draws follow
        # this order): a refactor of the sweeps must not rename one.
        passes = [
            f"{direction}.{layer}.{part}"
            for direction in ("forward_pass", "backward_pass")
            for layer in ("h1", "h2")
            for part in ("weight", "bias")
        ]
        giph = make_embedding("giph", np.random.default_rng(0))
        assert list(giph.state_dict()) == [
            "pre.net.modules.0.weight",
            "pre.net.modules.0.bias",
            "pre.net.modules.2.weight",
            "pre.net.modules.2.bias",
            *passes,
        ]
        giph_ne = make_embedding("giph-ne", np.random.default_rng(0))
        assert list(giph_ne.state_dict()) == ["proj.weight", "proj.bias", *passes]

    def test_ne_pol_has_no_parameters(self):
        emb = make_embedding("giph-ne-pol", np.random.default_rng(0))
        assert list(emb.parameters()) == []
        assert emb.out_dim == 8

    @pytest.mark.parametrize("kind", ["giph", "giph-3", "giph-ne", "graphsage-ne"])
    def test_gradients_flow_to_all_parameters(self, diamond_problem, kind):
        net = gpnet_of(diamond_problem)
        emb = make_embedding(kind, np.random.default_rng(1))
        emb(net).sum().backward()
        for name, p in emb.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_deterministic_forward(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        emb = make_embedding("giph", np.random.default_rng(2))
        np.testing.assert_allclose(emb(net).data, emb(net).data)

    def test_embedding_depends_on_placement(self, diamond_problem):
        emb = make_embedding("giph", np.random.default_rng(3))
        out_a = emb(gpnet_of(diamond_problem, (0, 0, 0, 2))).data
        out_b = emb(gpnet_of(diamond_problem, (1, 1, 1, 2))).data
        assert not np.allclose(out_a, out_b)

    def test_two_way_directions_differ(self, diamond_problem):
        # Forward and backward summaries should encode different subgraphs.
        net = gpnet_of(diamond_problem)
        emb = make_embedding("giph", np.random.default_rng(4))
        out = emb(net).data
        assert not np.allclose(out[:, :5], out[:, 5:])

    def test_giph_k_factory(self):
        emb = make_embedding("giph-7", np.random.default_rng(0))
        assert emb.k == 7
        with pytest.raises(ValueError, match="k must be >= 1"):
            make_embedding("giph-0", np.random.default_rng(0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_embedding("gat", np.random.default_rng(0))

    def test_augmented_features_shape(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        aug = augment_with_out_edge_means(net)
        assert aug.shape == (net.num_nodes, 8)
        # Exit-task options have no out-edges -> zero means.
        exit_opts = net.options[3]
        np.testing.assert_allclose(aug[exit_opts, 4:], 0.0)

    def test_sum_aggregation_option(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        emb = TwoWayMessagePassing(np.random.default_rng(5), aggregation="sum")
        assert emb(net).shape == (net.num_nodes, 10)

    def test_bad_aggregation(self):
        """A bad ``aggregation`` fails where it is written — at
        construction — not on the first forward that happens to have an
        edge (an edgeless gpNet used to run to completion with the typo)."""
        for bad in ("max", ""):
            with pytest.raises(ValueError, match=rf"{bad!r}.*\('mean', 'sum'\)"):
                TwoWayMessagePassing(np.random.default_rng(5), aggregation=bad)
        for good in ("mean", "sum"):
            TwoWayMessagePassing(np.random.default_rng(5), aggregation=good)  # constructs


class TestScorePolicy:
    def test_log_probs_normalized_over_mask(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        emb = make_embedding("giph", np.random.default_rng(0))
        policy = ScorePolicy(emb.out_dim, np.random.default_rng(1))
        mask = ~net.is_pivot
        lp = policy.log_probs(emb(net), mask)
        assert np.exp(lp.data[mask]).sum() == pytest.approx(1.0)

    def test_sample_respects_mask(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        emb = make_embedding("giph", np.random.default_rng(0))
        policy = ScorePolicy(emb.out_dim, np.random.default_rng(1))
        mask = ~net.is_pivot
        rng = np.random.default_rng(2)
        embeddings = emb(net)
        for _ in range(25):
            action, _ = policy.sample(embeddings, mask, rng)
            assert mask[action]

    def test_log_prob_backward_reaches_gnn(self, diamond_problem):
        net = gpnet_of(diamond_problem)
        emb = make_embedding("giph", np.random.default_rng(0))
        policy = ScorePolicy(emb.out_dim, np.random.default_rng(1))
        _, log_prob = policy.sample(emb(net), ~net.is_pivot, np.random.default_rng(2))
        log_prob.backward()
        grads = [p.grad for p in emb.parameters()]
        assert any(g is not None and np.abs(g).sum() > 0 for g in grads)

    def test_policy_size_independent_of_instance(self, diamond_problem, chain_problem):
        # The same policy evaluates instances of different sizes — the
        # paper's scalability claim (§4.2.3).
        rng = np.random.default_rng(0)
        emb = make_embedding("giph", rng)
        policy = ScorePolicy(emb.out_dim, rng)
        for problem, placement in [(diamond_problem, [0, 0, 0, 2]), (chain_problem, [0, 1])]:
            net = GpNetBuilder(problem).build(placement)
            lp = policy.log_probs(emb(net), np.ones(net.num_nodes, dtype=bool))
            assert lp.shape == (net.num_nodes,)
