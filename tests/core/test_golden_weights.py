"""Trained weights are a fixed point: sha256 of every parameter after a
few seeded episodes, per agent kind and training mode, held to
``tests/golden/digests.json`` (rules and refresh: the root ``conftest.py``).

``giph`` / ``giph-ne`` / ``task-eft`` multiply through the row-invariant
einsum kernel and are compared on every environment; ``placeto``
multiplies with ``@`` and skips, by name, where the BLAS build differs.
"""

import numpy as np
import pytest

from repro.baselines import PlacetoAgent, TaskEftAgent
from repro.core import GiPHAgent, PlacementProblem, ReinforceConfig, ReinforceTrainer
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.parallel import ForkBackend
from repro.sim import MakespanObjective

AGENTS = {
    "giph": lambda rng: GiPHAgent(rng),
    "giph-ne": lambda rng: GiPHAgent(rng, embedding="giph-ne"),
    "placeto": lambda rng: PlacetoAgent(rng, num_devices=4),
    "task-eft": lambda rng: TaskEftAgent(rng),
}


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
    rng = np.random.default_rng([2023, sorted(AGENTS).index(kind)])
    agent = AGENTS[kind](rng)
    trainer = ReinforceTrainer(agent, MakespanObjective(), ReinforceConfig())
    trainer.train(problems(), rng, episodes=episodes, **fanout)
    return b"".join(p.data.tobytes() for p in agent.parameters())


@pytest.mark.parametrize("kind", sorted(AGENTS))
def test_five_serial_episodes(golden, kind):
    portable = kind != "placeto"
    if golden.foreign and not portable:
        pytest.skip(f"placeto multiplies through BLAS: {golden.foreign}")
    golden.check("weights", kind, trained_weights(kind, 5), portable=portable)


@pytest.mark.parametrize("workers", [1, 2])
def test_batched_rounds_at_any_worker_count(golden, workers):
    # Six episodes at K=4: one full round and one short one.
    weights = trained_weights("giph", 6, batch_size=4, backend=ForkBackend(workers))
    golden.check("weights", f"giph-batched-k4-w{workers}", weights, portable=True)
