"""repro — reproduction of GiPH: Generalizable Placement Learning for
Adaptive Heterogeneous Computing (MLSys 2023).

Subpackages
-----------
* :mod:`repro.nn` — NumPy autograd / neural-network substrate.
* :mod:`repro.graphs` — task graphs: structures and generators.
* :mod:`repro.devices` — heterogeneous device networks and churn.
* :mod:`repro.sim` — discrete-event runtime simulator, metrics, objectives.
* :mod:`repro.runtime` — batched/caching placement scoring (PlacementEvaluator).
* :mod:`repro.core` — GiPH itself: gpNet, MDP, GNNs, policy, REINFORCE.
* :mod:`repro.baselines` — HEFT, EFT hybrids, Placeto, RNN placer.
* :mod:`repro.scenarios` — declarative dynamic-cluster scenarios + replay.
* :mod:`repro.casestudy` — CAV sensor-fusion case study.
* :mod:`repro.experiments` — runners regenerating every paper table/figure.

Quickstart
----------
>>> import numpy as np
>>> from repro import GiPHAgent, PlacementProblem, ReinforceTrainer, run_search
>>> from repro.graphs import TaskGraphParams, generate_task_graph
>>> from repro.devices import DeviceNetworkParams, generate_device_network
>>> from repro.sim import MakespanObjective
>>> rng = np.random.default_rng(0)
>>> graph = generate_task_graph(TaskGraphParams(num_tasks=10), rng)
>>> network = generate_device_network(DeviceNetworkParams(num_devices=4), rng)
>>> problem = PlacementProblem(graph, network)
>>> agent = GiPHAgent(rng)
>>> stats = ReinforceTrainer(agent, MakespanObjective()).train([problem], rng, episodes=2)
>>> len(stats)
2
"""

from . import _alloc  # noqa: F401  (first: the allocator policy for everything below)
from .core import (
    GiPHAgent,
    PlacementProblem,
    ReinforceConfig,
    ReinforceTrainer,
    SearchTrace,
    random_placement,
    run_search,
)
from .runtime import EvaluatorStats, PlacementEvaluator
from .scenarios import DEFAULT_REGISTRY, AdaptationReport, ScenarioRunner, ScenarioSpec
from .sim import EnergyObjective, MakespanObjective, TotalCostObjective, simulate

__version__ = "1.0.0"

__all__ = [
    "GiPHAgent",
    "PlacementProblem",
    "PlacementEvaluator",
    "EvaluatorStats",
    "ReinforceConfig",
    "ReinforceTrainer",
    "SearchTrace",
    "random_placement",
    "run_search",
    "MakespanObjective",
    "TotalCostObjective",
    "EnergyObjective",
    "simulate",
    "ScenarioSpec",
    "ScenarioRunner",
    "AdaptationReport",
    "DEFAULT_REGISTRY",
    "__version__",
]
