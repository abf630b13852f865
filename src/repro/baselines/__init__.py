"""Baseline placement algorithms evaluated against GiPH (paper §5)."""

from .base import AdaptivePolicy, SearchPolicy
from .eft import eft_device, eft_estimates, eft_relocation_search
from .giph_policy import GiPHSearchPolicy
from .heft import HeftSchedule, heft_placement, upward_ranks
from .placeto import PlacetoAgent, PlacetoLayout
from .random_policies import RandomPlacementPolicy, RandomTaskEftPolicy
from .rnn_placer import RnnPlacer, RnnPlacerPolicy, RnnPlacerResult, operator_embeddings
from .task_eft import TaskEftAgent, TaskViewBuilder

__all__ = [
    "SearchPolicy",
    "AdaptivePolicy",
    "eft_device",
    "eft_estimates",
    "eft_relocation_search",
    "GiPHSearchPolicy",
    "HeftSchedule",
    "heft_placement",
    "upward_ranks",
    "PlacetoAgent",
    "PlacetoLayout",
    "RandomPlacementPolicy",
    "RandomTaskEftPolicy",
    "RnnPlacer",
    "RnnPlacerPolicy",
    "RnnPlacerResult",
    "operator_embeddings",
    "TaskEftAgent",
    "TaskViewBuilder",
]
