"""Trained weights are a fixed point: sha256 of every parameter after a
few seeded episodes, per agent kind and training mode, held to
``tests/golden/digests.json`` (rules and refresh: the root ``conftest.py``).

``giph`` / ``giph-ne`` / ``task-eft`` multiply through the row-invariant
einsum kernel and are compared on every environment; ``placeto``,
``giph-3`` / ``giph-5`` and ``graphsage-ne`` multiply with ``@`` and skip,
by name, where the BLAS build differs.
"""

import numpy as np
import pytest

from repro.baselines import PlacetoAgent, TaskEftAgent
from repro.core import GiPHAgent, PlacementProblem, ReinforceConfig, ReinforceTrainer
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.parallel import ForkBackend
from repro.sim import MakespanObjective

# kind -> (seed, agent factory).  Seeds are fixed per kind, not derived
# from the kind's position: a new kind must not move an existing digest.
AGENTS = {
    "giph": (0, lambda rng: GiPHAgent(rng)),
    "giph-ne": (1, lambda rng: GiPHAgent(rng, embedding="giph-ne")),
    "placeto": (2, lambda rng: PlacetoAgent(rng, num_devices=4)),
    "task-eft": (3, lambda rng: TaskEftAgent(rng)),
    "giph-3": (4, lambda rng: GiPHAgent(rng, embedding="giph-3")),
    "giph-5": (5, lambda rng: GiPHAgent(rng, embedding="giph-5")),
    "graphsage-ne": (6, lambda rng: GiPHAgent(rng, embedding="graphsage-ne")),
}
PORTABLE = {"giph", "giph-ne", "task-eft"}  # the rest multiply with ``@``


def problems() -> list[PlacementProblem]:
    rng = np.random.default_rng(2023)
    return [
        PlacementProblem(
            generate_task_graph(TaskGraphParams(num_tasks=9), rng),
            generate_device_network(DeviceNetworkParams(num_devices=4), rng),
        )
        for _ in range(3)
    ]


def trained_weights(kind: str, episodes: int, **fanout) -> bytes:
    seed, make_agent = AGENTS[kind]
    rng = np.random.default_rng([2023, seed])
    agent = make_agent(rng)
    trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig())
    trainer.train(problems(), rng, episodes=episodes, **fanout)
    return b"".join(p.data.tobytes() for p in agent.parameters())


@pytest.mark.parametrize("kind", sorted(AGENTS))
def test_five_serial_episodes(golden, kind):
    portable = kind in PORTABLE
    if golden.foreign and not portable:
        pytest.skip(f"{kind} multiplies through BLAS: {golden.foreign}")
    golden.check("weights", kind, trained_weights(kind, 5), portable=portable)


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_rounds_at_any_worker_count(golden, workers):
    # Six episodes at K=4: one full round and one short one.
    weights = trained_weights("giph", 6, batch_size=4, backend=ForkBackend(workers))
    golden.check("weights", f"giph-batched-k4-w{workers}", weights, portable=True)
