"""RNN-based placer (hierarchical device placement style, Mirhoseini 2018).

The paper's per-instance RL baseline: a sequence-to-sequence model — a
bi-LSTM encoder over operator embeddings and a unidirectional LSTM
decoder with attention — emits a device for each operator in topological
order.  It neither generalizes across graphs nor across networks, so the
paper retrains it on every test case, drawing 4 placement samples per
update "until the latency is no longer improved" (§5).

Operator embedding (§B.7 / Table 4): one-hot hardware requirement ∥
compute scalar ∥ out-edge data bytes (padded to max out-degree) ∥
adjacency row — total dim  n_type + 1 + max(d_out) + n_nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.placement import PlacementProblem
from ..core.search import SearchTrace
from ..nn import Adam, AdditiveAttention, BiLSTM, Linear, LSTMCell, Tensor, concat, no_grad
from ..nn import functional as F
from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .base import AdaptivePolicy, make_evaluator

__all__ = ["RnnPlacer", "RnnPlacerResult", "RnnPlacerPolicy", "operator_embeddings"]


def operator_embeddings(problem: PlacementProblem) -> np.ndarray:
    """Static per-operator input features for the seq2seq model."""
    graph = problem.graph
    n = graph.num_tasks
    num_types = max(graph.requirements) + 1
    max_out = max((len(graph.children[i]) for i in range(n)), default=0)

    rows = []
    for i in range(n):
        onehot = np.zeros(num_types)
        onehot[graph.requirements[i]] = 1.0
        out_bytes = np.zeros(max(max_out, 1))
        for k, child in enumerate(graph.children[i]):
            out_bytes[k] = graph.edges[(i, child)]
        adjacency = np.zeros(n)
        adjacency[list(graph.children[i])] = 1.0
        rows.append(np.concatenate([onehot, [graph.compute[i]], out_bytes, adjacency]))
    feats = np.array(rows)
    scale = np.abs(feats).mean(axis=0)
    return feats / np.where(scale > 1e-12, scale, 1.0)


@dataclass(frozen=True)
class RnnPlacerResult:
    """Training outcome on one instance."""

    best_placement: tuple[int, ...]
    best_value: float
    values_per_update: tuple[float, ...]  # best-so-far after each update
    updates: int


class RnnPlacer:
    """Per-instance seq2seq placement policy.

    Built for one (G, N): input embedding dims depend on the graph and
    the output head on the device count, which is precisely why this
    baseline requires retraining whenever either changes.
    """

    def __init__(
        self,
        problem: PlacementProblem,
        rng: np.random.Generator,
        hidden: int = 16,
        learning_rate: float = 0.01,
    ) -> None:
        self.problem = problem
        # RnnPlacer is built per case inside the search with that case's
        # derived stream and discarded after; the stored generator never
        # crosses case or worker boundaries.
        self.rng = rng  # repro: lint-ok[rng-stored-advancing]
        self.features = operator_embeddings(problem)
        self.order = list(problem.graph.topo_order)
        m = problem.network.num_devices
        input_dim = self.features.shape[1]
        self.encoder = BiLSTM(input_dim, hidden, rng)
        mem_dim = 2 * hidden
        self.decoder = LSTMCell(mem_dim + m, hidden, rng)
        self.attention = AdditiveAttention(hidden, mem_dim, hidden, rng)
        self.head = Linear(hidden + mem_dim, m, rng)
        self.num_devices = m
        params = (
            list(self.encoder.parameters())
            + list(self.decoder.parameters())
            + list(self.attention.parameters())
            + list(self.head.parameters())
        )
        self.optimizer = Adam(params, lr=learning_rate)

    # -- sampling ---------------------------------------------------------------

    def sample_placement(self, greedy: bool = False) -> tuple[tuple[int, ...], Tensor]:
        """Decode one placement; returns (placement, total log-prob)."""
        memory = self.encoder(Tensor(self.features[self.order]))
        state = self.decoder.initial_state()
        prev_onehot = np.zeros(self.num_devices)
        placement = [0] * self.problem.graph.num_tasks
        total_log_prob: Tensor | None = None
        for t, op in enumerate(self.order):
            step_in = concat([memory[t], Tensor(prev_onehot)], axis=-1)
            h, c = self.decoder(step_in, state)
            state = (h, c)
            context = self.attention(h, memory)
            logits = self.head(concat([h, context], axis=-1))
            mask = np.zeros(self.num_devices, dtype=bool)
            mask[list(self.problem.feasible_sets[op])] = True
            log_probs = F.masked_log_softmax(logits, mask)
            probs = np.exp(log_probs.data)
            probs /= probs.sum()
            if greedy:
                device = int(np.argmax(probs))
            else:
                device = int(self.rng.choice(self.num_devices, p=probs))
            placement[op] = device
            lp = log_probs[device]
            total_log_prob = lp if total_log_prob is None else total_log_prob + lp
            prev_onehot = np.zeros(self.num_devices)
            prev_onehot[device] = 1.0
        return tuple(placement), total_log_prob

    # -- training -----------------------------------------------------------------

    def fit(
        self,
        objective: Objective,
        samples_per_update: int = 4,
        max_updates: int = 50,
        patience: int = 5,
    ) -> RnnPlacerResult:
        """Train on this instance until the latency stops improving."""
        best_value = float("inf")
        best_placement: tuple[int, ...] | None = None
        curve: list[float] = []
        stall = 0
        updates = 0
        for updates in range(1, max_updates + 1):
            sampled = [self.sample_placement() for _ in range(samples_per_update)]
            values = [
                objective.evaluate(self.problem.cost_model, placement)
                for placement, _ in sampled
            ]
            improved = False
            for (placement, _), value in zip(sampled, values):
                if value < best_value:
                    best_value, best_placement = value, placement
                    improved = True
            # REINFORCE with the batch mean as baseline: maximize -value.
            baseline = float(np.mean(values))
            loss = sum(
                lp * float(value - baseline)  # -(reward - baseline), reward = -value
                for (_, lp), value in zip(sampled, values)
            )
            self.optimizer.zero_grad()
            loss.backward()
            self.optimizer.clip_grad_norm(10.0)
            self.optimizer.step()
            curve.append(best_value)
            stall = 0 if improved else stall + 1
            if stall >= patience:
                break
        assert best_placement is not None
        return RnnPlacerResult(best_placement, best_value, tuple(curve), updates)

    def place(self, greedy: bool = True) -> tuple[int, ...]:
        """Decode a placement without building an autograd graph."""
        with no_grad():
            placement, _ = self.sample_placement(greedy=greedy)
        return placement


class RnnPlacerPolicy(AdaptivePolicy):
    """The RNN placer through the :class:`SearchPolicy` protocol.

    Because the model is per-instance (encoder dims depend on the graph,
    the decoder head on the device count), ``search`` trains a *fresh*
    placer on each problem — the paper's "w/ retraining" adaptivity
    baseline (Fig. 6), and the correct behavior under the scenario
    engine's ``adapt(event)`` streaming: every cluster change forces a
    retrain.
    """

    name = "rnn-placer"

    def __init__(
        self,
        samples_per_update: int = 4,
        max_updates: int = 8,
        patience: int = 3,
    ) -> None:
        self.samples_per_update = samples_per_update
        self.max_updates = max_updates
        self.patience = patience

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        evaluator = make_evaluator(problem, objective, evaluator)
        placer = RnnPlacer(problem, rng)
        fit = placer.fit(
            objective,
            samples_per_update=self.samples_per_update,
            max_updates=self.max_updates,
            patience=self.patience,
        )
        initial = problem.validate_placement(initial_placement)
        placements = [initial] + [fit.best_placement] * episode_length
        values = [evaluator.evaluate(initial)] + [fit.best_value] * episode_length
        return SearchTrace.from_values(placements, values)
