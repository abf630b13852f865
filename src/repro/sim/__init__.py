"""Runtime-simulator substrate (Appendix B.5) plus metrics and objectives."""

from .engine import Simulation
from .executor import SimResult, simulate
from .latency import CostModel
from .metrics import cp_min_lower_bound, energy_cost, total_cost
from .objectives import EnergyObjective, MakespanObjective, Objective, TotalCostObjective
from .relocation import RelocationCostModel, TaskRelocationProfile

__all__ = [
    "Simulation",
    "SimResult",
    "simulate",
    "CostModel",
    "cp_min_lower_bound",
    "total_cost",
    "energy_cost",
    "Objective",
    "MakespanObjective",
    "TotalCostObjective",
    "EnergyObjective",
    "RelocationCostModel",
    "TaskRelocationProfile",
]
