"""GiPH-task-EFT: RL task selection + EFT device selection (paper §5, B.6).

The gpNet ablation: "without using gpNet, selecting a task and deciding
where to place it are done separately".  The agent embeds the *task
graph* (one node per task, annotated with its current placement) rather
than the joint task×device gpNet, scores tasks, and delegates the device
choice to EFT.

Per problem (:class:`TaskViewBuilder`, made once by ``search``, cached
per problem by ``ReinforceTrainer`` through ``handle``, and passed as
``views=``): edge arrays, the C_i column, the view's ``GpNetStructure``
and its endpoint rows.
Per step: the placement-dependent columns and both normalisations — every
row moves with a relocation.

Training is :class:`repro.core.reinforce.ReinforceTrainer` with this
agent: ``rollout`` is the search episode (:meth:`TaskEftAgent._relocate`)
run with grad on, recording each pick's log-probability.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

from ..core.env import default_episode_length
from ..core.features import GpNetBuilder, GpNetStructure, _attach
from ..core.gnn import TwoWayMessagePassing
from ..core.gpnet import GpNet
from ..core.placement import PlacementProblem, random_placement
from ..core.policy import ScorePolicy
from ..core.search import SearchTrace
from ..nn import Parameter, Tensor, no_grad
from ..runtime.evaluator import PlacementEvaluator
from ..runtime.fastsim import FastSimulator
from ..sim.executor import SimResult
from ..sim.objectives import Objective
from .base import AdaptivePolicy, bound_handle, make_evaluator, rollout_of
from .eft import eft_relocation_search

__all__ = ["TaskViewBuilder", "TaskEftAgent"]


class TaskViewBuilder:
    """One problem's task views: the task graph as a degenerate gpNet, one
    (pivot) node per task — the task-level sibling of ``GpNetBuilder``.

    Node features: [C_i, SP_{M(i)}, w_{i,M(i)}, scheduled start time];
    edge features: [B_ij, 1/BW, DL, c_ij] under the current placement.
    Reusing the GpNet container lets the GiPH GNN run unchanged on the
    task-level graph.
    """

    def __init__(self, problem: PlacementProblem) -> None:
        self.problem = problem
        graph = problem.graph
        self._src, self._dst, self._data = graph.edge_arrays()
        self._tasks = np.arange(graph.num_tasks, dtype=np.int64)
        self._compute = np.array(graph.compute)
        self._is_pivot = np.ones(graph.num_tasks, dtype=bool)
        self._options = tuple(np.array([i]) for i in range(graph.num_tasks))
        # Endpoints never move: the first view's sweep plan and endpoint
        # rows serve every view.
        self._structure: GpNetStructure | None = None
        self._rows = np.empty((2, 0), dtype=np.int64)

    def build(self, placement: Sequence[int], timeline: SimResult | None = None) -> GpNet:
        """The view of ``placement`` (timeline simulated if absent)."""
        problem, network = self.problem, self.problem.network
        placement = problem.validate_placement(placement)
        if timeline is None:
            timeline = FastSimulator(problem).run(placement, validate=False)
        device_of = np.array(placement, dtype=np.int64)
        node_features = np.column_stack(
            [self._compute, network.speeds[device_of],
             problem.cost_model.W[self._tasks, device_of], timeline.start]
        )
        du, dv = device_of[self._src], device_of[self._dst]
        inv_bw, delay = network.inv_bandwidth[du, dv], network.delay[du, dv]
        # c_ij in CostModel.comm_time's grouping, exactly 0.0 when co-located.
        comm = np.where(du == dv, 0.0, delay + self._data * inv_bw)
        edge_features = np.column_stack([self._data, inv_bw, delay, comm])
        net = GpNet(
            task_of=self._tasks,
            device_of=device_of,
            is_pivot=self._is_pivot,
            options=self._options,
            edge_src=self._src,
            edge_dst=self._dst,
            node_features=GpNetBuilder._normalize(node_features),
            edge_features=GpNetBuilder._normalize(edge_features),  # (0, 4) stays as is
            placement=placement,
        )
        if self._structure is None:
            self._structure = GpNetStructure.from_gpnet(net)
            self._rows = self._structure.endpoint_rows(net)
        return _attach(net, self._structure, self._rows)


class TaskEftAgent(AdaptivePolicy):
    """Task-selection policy with EFT device selection."""

    name = "giph-task-eft"

    def __init__(self, rng: np.random.Generator) -> None:
        self.embedding = TwoWayMessagePassing(rng)
        self.policy = ScorePolicy(self.embedding.out_dim, rng)
        # Constructor stream initializes weights only: search() rebinds
        # self.rng to the caller's per-case stream before select_task
        # samples (see the waiver there).  Kept so TaskEftAgent stays
        # constructible from a bare generator like the other baselines.
        self.rng = rng  # repro: lint-ok[rng-stored-advancing]

    def parameters(self) -> Iterator[Parameter]:
        yield from self.embedding.parameters()
        yield from self.policy.parameters()

    def select_task(
        self,
        problem: PlacementProblem,
        placement: Sequence[int],
        last_task: int | None,
        timeline: SimResult | None = None,
        views: TaskViewBuilder | None = None,
    ) -> tuple[int, Tensor]:
        """Sample a task to relocate; returns (task, log-prob tensor).

        ``views`` is the caller's :class:`TaskViewBuilder` for
        ``problem``; passing one never changes the result.
        """
        view = bound_handle(problem, views, TaskViewBuilder).build(placement, timeline)
        embeddings = self.embedding(view)
        mask = np.ones(problem.graph.num_tasks, dtype=bool)
        if last_task is not None and problem.graph.num_tasks > 1:
            mask[last_task] = False
        return self.policy.sample(embeddings, mask, self.rng)

    def _relocate(
        self,
        evaluator: PlacementEvaluator,
        views: TaskViewBuilder,
        initial_placement: Sequence[int],
        episode_length: int,
        log_probs: list[Tensor] | None = None,
    ) -> SearchTrace:
        """The task-EFT episode; with ``log_probs`` the picks run with grad
        on and their log-probabilities are appended to it (training)."""
        problem = evaluator.problem
        grad_mode = no_grad if log_probs is None else contextlib.nullcontext
        last_task: int | None = None

        def pick_task(placement: Sequence[int], timeline: SimResult) -> int:
            # One cached timeline serves both the task view and EFT.
            nonlocal last_task
            with grad_mode():
                last_task, log_prob = self.select_task(
                    problem, placement, last_task, timeline=timeline, views=views
                )
            if log_probs is not None:
                log_probs.append(log_prob)
            return last_task

        return eft_relocation_search(evaluator, initial_placement, episode_length, pick_task)

    def search(
        self,
        problem: PlacementProblem,
        objective: Objective,
        initial_placement: Sequence[int],
        episode_length: int,
        rng: np.random.Generator,
        evaluator: PlacementEvaluator | None = None,
    ) -> SearchTrace:
        # Sample from the caller's per-case stream (as GiPHSearchPolicy
        # does): leaving the agent's internal rng advancing across cases
        # couples a case's result to which cases ran before it — and on
        # which worker — breaking worker-count independence.
        # Rebinding TO the caller's stream is the fix, not the bug.
        # repro: lint-ok[rng-stored-advancing]
        self.rng = rng
        return self._relocate(
            make_evaluator(problem, objective, evaluator),
            TaskViewBuilder(problem),
            initial_placement,
            episode_length,
        )

    # -- training (the agent side of ReinforceTrainer) ---------------------------

    def handle(self, problem: PlacementProblem, feature_config=None) -> TaskViewBuilder:
        """What this agent precomputes per problem (``feature_config``
        shapes gpNets only; the task view has one layout)."""
        return TaskViewBuilder(problem)

    def rollout(
        self,
        evaluator: PlacementEvaluator,
        handle: TaskViewBuilder,
        rng: np.random.Generator,
        episode_length: int | None = None,
    ) -> tuple[list[Tensor], list[float], float, float, float]:
        """The search episode with grad on, from a random placement drawn
        from ``rng`` (``None`` = 2|V| steps); tasks are sampled from the
        agent's own stream."""
        problem = evaluator.problem
        steps = default_episode_length(problem) if episode_length is None else episode_length
        log_probs: list[Tensor] = []
        trace = self._relocate(
            evaluator, handle, random_placement(problem, rng), steps, log_probs
        )
        return rollout_of(trace, log_probs)
