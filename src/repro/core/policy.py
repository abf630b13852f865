"""Policy network: per-action score function + masked softmax (paper §4.2.3).

The policy scores each gpNet node (= action) independently with a shared
MLP g(.), so the network size is independent of the gpNet size — the key
to scaling across problem instances.
"""

from __future__ import annotations

import numpy as np

from ..nn import MLP, Module, Tensor
from ..nn import functional as F

__all__ = ["ScorePolicy"]


class ScorePolicy(Module):
    """q_a = g(e_a); P(a|s) = softmax over feasible actions.

    Parameters
    ----------
    embed_dim: dimension of per-node embeddings from the GNN.
    """

    def __init__(self, embed_dim: int, rng: np.random.Generator) -> None:
        self.score = MLP([embed_dim, 16, 1], rng)  # hidden width 16 (Table 5)

    def log_probs(self, embeddings: Tensor, mask: np.ndarray) -> Tensor:
        """Log action probabilities over gpNet nodes (masked entries ≈ -inf).

        The whole candidate set is scored in one batched pass: the MLP
        maps the (num_nodes, embed_dim) embedding matrix through two
        matmuls, so per-step policy cost is a couple of BLAS calls
        rather than a per-action Python loop — the scoring half of the
        vectorized episode hot path (the embedding half lives in
        :mod:`repro.core.gnn`).
        """
        scores = self.score(embeddings).reshape(-1)
        return F.masked_log_softmax(scores, mask)

    def sample(
        self,
        embeddings: Tensor,
        mask: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, Tensor]:
        """Sample an action; return (node index, its log-probability node).

        The returned log-probability participates in the autograd graph,
        so REINFORCE losses can backpropagate through it.
        """
        log_probs = self.log_probs(embeddings, mask)
        probs = np.exp(log_probs.data)
        probs = np.where(mask, probs, 0.0)
        probs = probs / probs.sum()
        action = int(rng.choice(len(probs), p=probs))
        return action, log_probs[action]
