"""GiPH-task-EFT: RL task selection + EFT device selection (paper §5, B.6).

The gpNet ablation: "without using gpNet, selecting a task and deciding
where to place it are done separately".  The agent embeds the *task
graph* (one node per task, annotated with its current placement) rather
than the joint task×device gpNet, scores tasks, and delegates the device
choice to EFT.

Per problem (:class:`TaskViewBuilder`, made once by ``search`` /
``run_episode`` and passed as ``views=``): edge arrays, the C_i column,
the view's ``GpNetStructure``.  Per step: the placement-dependent columns
and both normalisations — every row moves with a relocation.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..core.env import default_episode_length
from ..core.features import GpNetBuilder, GpNetStructure
from ..core.gnn import TwoWayMessagePassing
from ..core.gpnet import GpNet
from ..core.placement import PlacementProblem, random_placement
from ..core.policy import ScorePolicy
from ..core.reinforce import average_reward_baseline, discounted_returns
from ..core.search import SearchTrace
from ..nn import Adam, Parameter, Tensor, no_grad
from ..runtime.evaluator import EvaluatorPool, PlacementEvaluator
from ..sim.executor import SimResult, simulate
from ..sim.objectives import Objective
from .base import AdaptivePolicy, bound_handle, make_evaluator
from .eft import eft_device, eft_relocation_search

__all__ = ["TaskViewBuilder", "build_task_view", "TaskEftAgent", "TaskEftTrainer"]


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
        # Endpoints never move: the first view's sweep plans serve every view.
        self._structure: GpNetStructure | None = None

    def build(self, placement: Sequence[int], timeline: SimResult | None = None) -> GpNet:
        """The view of ``placement`` (timeline simulated if absent)."""
        problem, network = self.problem, self.problem.network
        placement = problem.validate_placement(placement)
        if timeline is None:
            timeline = simulate(problem.graph, network, placement, problem.cost_model)
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
        object.__setattr__(net, "_structure", self._structure)
        return net


def build_task_view(
    problem: PlacementProblem, placement: Sequence[int], timeline: SimResult | None = None
) -> GpNet:
    """One-shot :meth:`TaskViewBuilder.build`."""
    return TaskViewBuilder(problem).build(placement, timeline)


class TaskEftAgent(AdaptivePolicy):
    """Task-selection policy with EFT device selection."""

    name = "giph-task-eft"

    def __init__(self, rng: np.random.Generator) -> None:
        self.embedding = TwoWayMessagePassing(rng)
        self.policy = ScorePolicy(self.embedding.out_dim, rng)
        self.rng = rng

    def parameters(self) -> Iterator[Parameter]:
        yield from self.embedding.parameters()
        yield from self.policy.parameters()

    def select_task(
        self,
        problem: PlacementProblem,
        placement: Sequence[int],
        last_task: int | None,
        greedy: bool = False,
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
        return self.policy.sample(embeddings, mask, self.rng, greedy=greedy)

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
        last_task: int | None = None
        views = TaskViewBuilder(problem)

        def pick_task(placement: Sequence[int], timeline: SimResult) -> int:
            # One cached timeline serves both the task view and EFT.
            nonlocal last_task
            with no_grad():
                last_task, _ = self.select_task(
                    problem, placement, last_task, timeline=timeline, views=views
                )
            return last_task

        return eft_relocation_search(
            problem,
            make_evaluator(problem, objective, evaluator),
            initial_placement,
            episode_length,
            pick_task,
        )


class TaskEftTrainer:
    """REINFORCE over the task-selection policy (device choice fixed to EFT)."""

    def __init__(
        self,
        agent: TaskEftAgent,
        objective: Objective,
        learning_rate: float = 0.01,
        gamma: float = 0.97,
        grad_clip: float = 10.0,
    ) -> None:
        self.agent = agent
        self.objective = objective
        self.gamma = gamma
        self.grad_clip = grad_clip
        self.optimizer = Adam(list(agent.parameters()), lr=learning_rate)
        self._evaluators = EvaluatorPool(objective)

    def run_episode(
        self,
        problem: PlacementProblem,
        rng: np.random.Generator,
        episode_length: int | None = None,
    ) -> float:
        """One on-policy episode + gradient step; returns total reward."""
        steps = default_episode_length(problem) if episode_length is None else episode_length
        if steps < 1:
            raise ValueError("episode_length must be >= 1")
        evaluator = self._evaluators.get(problem)
        views = TaskViewBuilder(problem)
        placement = list(random_placement(problem, rng))
        value = evaluator.evaluate(placement)
        log_probs: list[Tensor] = []
        rewards: list[float] = []
        last_task: int | None = None
        for _ in range(steps):
            timeline = evaluator.timeline(placement)
            task, log_prob = self.agent.select_task(
                problem, placement, last_task, timeline=timeline, views=views
            )
            placement[task] = eft_device(problem, placement, task, timeline=timeline)
            last_task = task
            new_value = evaluator.evaluate(placement)
            rewards.append(value - new_value)
            log_probs.append(log_prob)
            value = new_value

        returns = discounted_returns(rewards, self.gamma)
        baseline = average_reward_baseline(rewards)
        discount = self.gamma ** np.arange(len(rewards))
        advantages = discount * (returns - baseline)
        loss = sum(lp * float(-adv) for lp, adv in zip(log_probs, advantages))
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.clip_grad_norm(self.grad_clip)
        self.optimizer.step()
        return float(sum(rewards))

    def train(
        self,
        problems: Sequence[PlacementProblem],
        rng: np.random.Generator,
        episodes: int,
    ) -> list[float]:
        if not problems:
            raise ValueError("training needs at least one problem")
        return [
            self.run_episode(problems[int(rng.integers(0, len(problems)))], rng)
            for _ in range(episodes)
        ]
