"""Table 7 / Figure 17: policy running and training time per sample.

Measures, per GNN variant, the wall-clock time of (a) one inference-mode
placement step (gpNet build + embedding + policy) and (b) one training
step amortized from a full episode, across graph sizes.  Expected shape
(paper): GiPH's full-depth message passing grows with graph size; the
k-step variants cap it; GiPH-NE-Pol (no GNN) is cheapest.

Streams derive per stage — problems from ``[seed, 0, slot]``, each
(variant, problem) measurement from ``[seed, 1, variant, slot]`` — but
this module intentionally takes no ``backend``: it *is* a wall-clock
measurement, and timing samples taken on processes contending for the
same cores would measure the scheduler, not the policies.
"""

from __future__ import annotations

import time

import numpy as np

from ..baselines.placeto import PlacetoAgent, PlacetoLayout
from ..core.agent import GiPHAgent
from ..core.env import PlacementEnv
from ..core.placement import PlacementProblem, random_placement
from ..core.reinforce import ReinforceConfig, ReinforceTrainer
from ..devices.generator import DeviceNetworkParams, generate_device_network
from ..graphs.generator import TaskGraphParams, generate_task_graph
from ..nn import no_grad
from ..sim.objectives import MakespanObjective
from .base import ExperimentReport
from .config import Scale
from .reporting import banner, format_table

__all__ = ["run", "VARIANTS"]

VARIANTS = ("giph", "giph-3", "giph-5", "giph-ne", "giph-ne-pol", "graphsage-ne")


def _problem(num_tasks: int, scale: Scale, rng: np.random.Generator) -> PlacementProblem:
    graph = generate_task_graph(TaskGraphParams(num_tasks=num_tasks, constraint_prob=0.0), rng)
    network = generate_device_network(
        DeviceNetworkParams(num_devices=scale.num_devices), rng
    )
    return PlacementProblem(graph, network)


def _time_variant(variant: str, problem: PlacementProblem, repeats: int, rng) -> tuple[float, float]:
    """(inference seconds/sample, training seconds/sample)."""
    objective = MakespanObjective()
    if variant == "placeto":
        agent = PlacetoAgent(rng, num_devices=problem.network.num_devices)
        placed = np.zeros(problem.graph.num_tasks, dtype=bool)
        placement = list(random_placement(problem, rng))
        layout = PlacetoLayout(problem)  # per search, as PlacetoAgent.search makes it
        steps = problem.graph.num_tasks
        t0 = time.perf_counter()
        for _ in range(repeats):
            for node in problem.graph.topo_order:
                with no_grad():
                    agent.choose_device(problem, placement, node, placed, layout=layout)
    else:
        agent = GiPHAgent(rng, embedding=variant)
        env = PlacementEnv(problem, objective)
        state = env.reset(rng=rng)
        steps = 2 * problem.graph.num_tasks
        t0 = time.perf_counter()
        for _ in range(repeats):
            s = env.reset(rng=rng)
            for _ in range(steps):
                action = agent.act_inference(env, s)
                s, _, _ = env.step(action)
    infer = (time.perf_counter() - t0) / (repeats * steps)

    trainer = ReinforceTrainer(agent, objective, ReinforceConfig())
    t0 = time.perf_counter()
    for _ in range(repeats):
        trainer.run_episode(problem, rng)
    train = (time.perf_counter() - t0) / (repeats * steps)
    return infer, train


def run(scale: Scale, seed: int = 0) -> ExperimentReport:
    variants = [*VARIANTS, "placeto"]

    table7_rows = []
    fig17: dict[str, dict[str, list[float]]] = {"infer": {}, "train": {}}
    # Slot 0 is the headline table's problem; slots 1.. the fig17 sizes.
    base_problem = _problem(scale.num_tasks, scale, np.random.default_rng([seed, 0, 0]))
    for variant_index, variant in enumerate(variants):
        infer, train = _time_variant(
            variant, base_problem, scale.timing_repeats,
            np.random.default_rng([seed, 1, variant_index, 0]),
        )
        table7_rows.append([variant, train, infer])

    size_rows = []
    for variant in variants:
        fig17["infer"][variant] = []
        fig17["train"][variant] = []
    for size_index, size in enumerate(scale.timing_graph_sizes):
        problem = _problem(size, scale, np.random.default_rng([seed, 0, 1 + size_index]))
        row: list[object] = [size]
        for variant_index, variant in enumerate(variants):
            infer, train = _time_variant(
                variant, problem, max(1, scale.timing_repeats // 2),
                np.random.default_rng([seed, 1, variant_index, 1 + size_index]),
            )
            fig17["infer"][variant].append(infer)
            fig17["train"][variant].append(train)
            row.append(infer)
        size_rows.append(row)

    text = "\n".join(
        [
            banner("Table 7: policy running time per placement sample (seconds)"),
            format_table(
                ["variant", "training s/sample", "running s/sample"],
                [[v, f"{tr:.4f}", f"{inf:.4f}"] for v, tr, inf in table7_rows],
            ),
            banner("Fig. 17: running time per sample vs graph size (seconds)"),
            format_table(
                ["graph size", *variants],
                [[r[0], *(f"{x:.4f}" for x in r[1:])] for r in size_rows],
            ),
        ]
    )
    return ExperimentReport(
        experiment_id="table7",
        title="Policy running/training time per placement sample",
        text=text,
        data={
            "table7": {v: {"train": tr, "infer": inf} for v, tr, inf in table7_rows},
            "fig17": fig17,
            "sizes": list(scale.timing_graph_sizes),
        },
    )
