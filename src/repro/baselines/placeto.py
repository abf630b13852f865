"""Placeto baseline (Addanki et al., 2019), as characterized in the paper.

Placeto also performs incremental placement improvement, but differs
from GiPH in exactly the ways the paper isolates:

* it traverses each node **once**, in a fixed order, so it cannot revisit
  earlier decisions within an episode;
* its graph embedding covers the **task graph only** — device-network
  features are absent, which is why it degrades under noise and across
  device networks (Figs. 4-6);
* its policy head outputs a fixed-size distribution over devices, tying
  the trained network to a specific device count.

Architecture follows Table 4/5's Placeto row: 5 raw node features,
8 message-passing steps, node summary of dimension 5·2·4 = 40 (per-node
forward/backward embeddings, parent-aggregated, child-aggregated and
graph-pooled views), policy MLP 40 -> 32 -> num_devices.

Per problem (:class:`PlacetoLayout`, made once by ``search``, cached per
problem by ``ReinforceTrainer`` through ``handle``, and passed as
``layout=``): edge arrays, the two static feature columns, segment
sizes.  Per step: three feature columns, the normalisation, one
embedding.  Each direction's k steps are one tape node
(:func:`_propagate`); it multiplies with ``@`` because ``Linear`` does —
the row-invariant einsum kernel of ``core.gnn`` gives other floats.

Training is :class:`repro.core.reinforce.ReinforceTrainer` with this
agent: ``rollout`` is the search traversal (:meth:`PlacetoAgent._traverse`)
run for |V| steps with grad on, recording each choice's log-probability.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from ..core.placement import PlacementProblem, random_placement
from ..core.search import SearchTrace
from ..nn import MLP, Linear, Module, Parameter, Tensor, concat, no_grad
from ..nn import functional as F
from ..runtime.evaluator import PlacementEvaluator
from ..sim.objectives import Objective
from .base import AdaptivePolicy, bound_handle, make_evaluator, rollout_of

__all__ = ["PlacetoAgent", "PlacetoLayout", "placeto_node_features"]


class PlacetoLayout:
    """What Placeto reads of one problem that no placement changes: edge
    endpoints, the two static feature columns, the segment sizes of its
    two mean aggregations, the device-index scale."""

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        graph, cm = problem.graph, problem.cost_model
        n = graph.num_tasks
        self.src, self.dst, _ = graph.edge_arrays()
        self.in_counts = F._segment_counts(self.dst, n)[:, None]
        self.out_counts = F._segment_counts(self.src, n)[:, None]
        # ``graph.data_out(i)`` for every task in one pass over the edges:
        # per task the same additions in the same (dict) order.
        data_out = [0] * n
        for (u, _), data in graph.edges.items():
            data_out[u] += data
        self._static = np.array([[cm.mean_compute_time(i), data_out[i]] for i in range(n)])
        self._device_scale = max(problem.network.num_devices - 1, 1)

    def features(self, placement: Sequence[int], current_node: int, placed: np.ndarray) -> np.ndarray:
        """Placeto's 5 per-operator features (paper §B.7).

        (1) average compute time, (2) average output data bytes, (3) current
        placement (normalized device index), (4) is-current indicator,
        (5) already-placed-this-episode indicator.  Note the absence of any
        device-network capability feature — Placeto's crucial limitation.
        """
        feats = np.empty((len(self._static), 5))
        feats[:, :2] = self._static
        feats[:, 2] = np.asarray(placement) / self._device_scale
        # A compare, not ``feats[current_node] = 1``: -1 flags no row.
        feats[:, 3] = np.arange(len(feats)) == current_node
        feats[:, 4] = np.asarray(placed, dtype=bool)
        scale = np.abs(feats).mean(axis=0)
        return feats / np.where(scale > 1e-12, scale, 1.0)


def placeto_node_features(
    problem: PlacementProblem, placement: Sequence[int], current_node: int, placed: np.ndarray
) -> np.ndarray:
    """One-shot :meth:`PlacetoLayout.features`."""
    return PlacetoLayout(problem).features(placement, current_node, placed)


def _propagate(
    e0: Tensor, senders: np.ndarray, receivers: np.ndarray, counts: np.ndarray,
    msg_layer: Linear, agg_layer: Linear, steps: int,
) -> Tensor:
    """``steps`` rounds of ``e <- relu(agg(mean relu(msg(e[senders])))) + e0``
    as one tape node (``counts``: messages per receiver, floored at 1).

    The forward runs the composed ``Tensor`` loop's float operations in
    plain NumPy; the backward replays, last step first, what that tape
    would run, in its order (oracle: ``propagate_composed`` in
    ``tests/baselines/reference.py``).  Every parent is a parameter or
    computed from one, so none is tested for ``requires_grad``.
    """
    wm, bm, wa, ba = msg_layer.weight, msg_layer.bias, agg_layer.weight, agg_layer.bias
    parents = (e0, wm, bm, wa, ba)
    e0d, wmd, bmd, wad, bad = (p.data for p in parents)
    if len(senders) == 0:
        # Edgeless: no step reads the one before it (every ``agg`` is
        # zeros), so all compute the same floats and only the last is on
        # the composed tape — one step, accumulated once.
        steps = 1
    e, saved = e0d, []
    for _ in range(steps):
        s = e[senders]
        pre = s @ wmd + bmd
        agg = F._segment_sum_kernel(np.maximum(pre, 0.0), receivers, len(e0d)) / counts
        h = agg @ wad + bad
        e = np.maximum(h, 0.0) + e0d
        saved.append((s, pre, agg, h))

    def backward(grad: np.ndarray) -> None:
        G = grad  # gradient of the step output being unwound
        for step in reversed(range(steps)):
            s, pre, agg, h = saved[step]
            e0._accumulate(G)
            g_h = G * (h > 0)
            ba._accumulate(g_h.sum(axis=0))
            wa._accumulate(agg.T @ g_h)
            if len(senders) == 0:
                return  # the composed tape never runs ``msg_layer`` here
            g_pre = ((g_h @ wad.T) / counts)[receivers] * (pre > 0)
            bm._accumulate(g_pre.sum(axis=0))
            wm._accumulate(s.T @ g_pre)
            # Step 0 gathered from e0 itself (after its ``_accumulate``
            # above); later steps from an output nothing else reads.
            G = np.zeros_like(e0d) if step else e0.grad
            np.add.at(G, senders, g_pre @ wmd.T)

    return Tensor._make(e, parents, backward, "propagate")


class _PlacetoEmbedding(Module):
    """k-step two-way message passing over the task graph (no edge feats)."""

    def __init__(self, rng: np.random.Generator, node_dim: int = 5, embed_dim: int = 5, steps: int = 8) -> None:
        self.pre = MLP([node_dim, node_dim, embed_dim], rng)
        self.fwd_msg = Linear(embed_dim, embed_dim, rng)
        self.fwd_agg = Linear(embed_dim, embed_dim, rng)
        self.bwd_msg = Linear(embed_dim, embed_dim, rng)
        self.bwd_agg = Linear(embed_dim, embed_dim, rng)
        self.steps = steps
        self.embed_dim = embed_dim
        self.out_dim = embed_dim * 2 * 4

    def forward(self, layout: PlacetoLayout, features: np.ndarray) -> Tensor:
        """Node summaries of dim embed·2·4: per-node forward/backward
        embeddings plus parent-aggregated and child-aggregated views
        (zeros where a node has no parents/children), mirroring Placeto's
        grouped summaries."""
        n, src, dst = len(features), layout.src, layout.dst
        e0 = self.pre(Tensor(features))
        e_fwd = _propagate(e0, src, dst, layout.in_counts, self.fwd_msg, self.fwd_agg, self.steps)
        e_bwd = _propagate(e0, dst, src, layout.out_counts, self.bwd_msg, self.bwd_agg, self.steps)
        node = concat([e_fwd, e_bwd], axis=1)
        if len(src) == 0:
            parents = Tensor(np.zeros((n, 2 * self.embed_dim)))
            children = Tensor(np.zeros((n, 2 * self.embed_dim)))
        else:
            parents = F.segment_mean(node[src], dst, n)
            children = F.segment_mean(node[dst], src, n)
        pooled = node.mean(axis=0, keepdims=True) + Tensor(np.zeros((n, 2 * self.embed_dim)))
        return concat([node, parents, children, pooled], axis=1)


class PlacetoAgent(AdaptivePolicy):
    """Placeto: single-visit node traversal with a per-device softmax head.

    ``num_devices`` is baked into the policy head — the architectural
    reason Placeto cannot transfer across clusters of different sizes.
    """

    name = "placeto"

    def __init__(self, rng: np.random.Generator, num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self.num_devices = num_devices
        self.embedding = _PlacetoEmbedding(rng)
        self.head = MLP([self.embedding.out_dim, 32, num_devices], rng)
        # Constructor stream is only a bootstrap: search() rebinds self.rng
        # to the caller's per-case stream before any sampling (see the
        # waiver there).  Storing it keeps PlacetoAgent constructible
        # without a problem in hand, matching the paper baseline's interface.
        self.rng = rng  # repro: lint-ok[rng-stored-advancing]

    def parameters(self) -> Iterator[Parameter]:
        yield from self.embedding.parameters()
        yield from self.head.parameters()

    def device_log_probs(
        self,
        problem: PlacementProblem,
        placement: Sequence[int],
        node: int,
        placed: np.ndarray,
        layout: PlacetoLayout | None = None,
    ) -> Tensor:
        """Masked device distribution for ``node``.

        Networks *smaller* than the head are handled by masking the
        surplus outputs (devices can leave the cluster mid-deployment,
        Fig. 6); larger networks cannot be represented at all — the
        fixed-size head is Placeto's structural limitation.  ``layout``
        is the caller's :class:`PlacetoLayout` for ``problem``; passing
        one never changes the result.
        """
        if problem.network.num_devices > self.num_devices:
            raise ValueError(
                f"Placeto head built for {self.num_devices} devices; "
                f"network has {problem.network.num_devices} — retraining required"
            )
        layout = bound_handle(problem, layout, PlacetoLayout)
        embeddings = self.embedding(layout, layout.features(placement, node, placed))
        logits = self.head(embeddings[node])
        mask = np.zeros(self.num_devices, dtype=bool)
        mask[list(problem.feasible_sets[node])] = True
        return F.masked_log_softmax(logits, mask)

    def choose_device(
        self,
        problem: PlacementProblem,
        placement: Sequence[int],
        node: int,
        placed: np.ndarray,
        greedy: bool = False,
        layout: PlacetoLayout | None = None,
    ) -> tuple[int, Tensor]:
        log_probs = self.device_log_probs(problem, placement, node, placed, layout)
        probs = np.exp(log_probs.data)
        probs /= probs.sum()
        if greedy:
            device = int(np.argmax(probs))
        else:
            device = int(self.rng.choice(self.num_devices, p=probs))
        return device, log_probs[device]

    # -- evaluation ------------------------------------------------------------

    def _traverse(
        self,
        evaluator: PlacementEvaluator,
        layout: PlacetoLayout,
        initial_placement: Sequence[int],
        episode_length: int,
        log_probs: list[Tensor] | None = None,
    ) -> SearchTrace:
        """Visit nodes in topological order, one device choice per step,
        starting a fresh traversal every |V| steps; with ``log_probs`` the
        choices run with grad on and their log-probabilities are appended
        to it (training)."""
        problem = evaluator.problem
        grad_mode = no_grad if log_probs is None else contextlib.nullcontext
        placement = list(problem.validate_placement(initial_placement))
        placements = [tuple(placement)]
        values = [evaluator.evaluate(placement)]
        n = problem.graph.num_tasks
        relocations = [0] * n
        traversal = list(problem.graph.topo_order)
        placed = np.zeros(n, dtype=bool)
        position = 0
        for _ in range(episode_length):
            if position == len(traversal):  # new episode
                position = 0
                placed = np.zeros(n, dtype=bool)
            node = traversal[position]
            with grad_mode():
                device, log_prob = self.choose_device(
                    problem, placement, node, placed, layout=layout
                )
            if log_probs is not None:
                log_probs.append(log_prob)
            if device != placement[node]:
                relocations[node] += 1
            placement[node] = device
            placed[node] = True
            position += 1
            placements.append(tuple(placement))
            values.append(evaluator.evaluate(placement))
        return SearchTrace.from_values(placements, values, relocations)

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        """Traverse nodes once per |V| steps; restart a fresh traversal
        when the budget allows (paper §5: "we start a new search episode
        for Placeto after |V| steps")."""
        # Per-case stream discipline (see TaskEftAgent.search): device
        # sampling must draw from the caller's rng, not a generator whose
        # state depends on previously searched cases.
        # repro: lint-ok[rng-stored-advancing]  (rebinds to the per-case stream)
        self.rng = rng
        return self._traverse(
            make_evaluator(problem, objective, evaluator),
            PlacetoLayout(problem),
            initial_placement,
            episode_length,
        )

    # -- training (the agent side of ReinforceTrainer) ---------------------------

    def handle(self, problem: PlacementProblem, feature_config=None) -> PlacetoLayout:
        """What this agent precomputes per problem (``feature_config``
        shapes gpNets only; Placeto has its own five features)."""
        return PlacetoLayout(problem)

    def rollout(
        self,
        evaluator: PlacementEvaluator,
        handle: PlacetoLayout,
        rng: np.random.Generator,
        episode_length: int | None = None,
    ) -> tuple[list[Tensor], list[float], float, float, float]:
        """The search traversal with grad on, from a random placement
        drawn from ``rng`` (``None`` = one traversal, |V| steps); devices
        are sampled from the agent's own stream."""
        problem = evaluator.problem
        steps = problem.graph.num_tasks if episode_length is None else episode_length
        log_probs: list[Tensor] = []
        trace = self._traverse(
            evaluator, handle, random_placement(problem, rng), steps, log_probs
        )
        return rollout_of(trace, log_probs)
