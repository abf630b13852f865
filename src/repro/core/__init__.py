"""GiPH core: gpNet representation, MDP, GNN variants, policy, training.

The primary public surface of the library:

>>> from repro.core import GiPHAgent, PlacementProblem, ReinforceTrainer, run_search
"""

from .agent import GiPHAgent
from .env import EnvState, PlacementEnv, default_episode_length
from .features import (
    EDGE_FEATURE_DIM,
    NODE_FEATURE_DIM,
    FeatureConfig,
    GpNetBuilder,
    GpNetStructure,
    structure_of,
)
from .gnn import (
    GpNetEmbedding,
    GraphSageNoEdge,
    KStepMessagePassing,
    RawFeatureEmbedding,
    TwoWayMessagePassing,
    TwoWayNoEdge,
    augment_with_out_edge_means,
    make_embedding,
)
from .gpnet import GpNet
from .placement import PlacementProblem, random_placement
from .policy import ScorePolicy
from .reinforce import (
    EpisodeStats,
    ReinforceConfig,
    ReinforceTrainer,
    average_reward_baseline,
    discounted_returns,
)
from .search import SearchTrace, run_search

__all__ = [
    "GiPHAgent",
    "EnvState",
    "PlacementEnv",
    "default_episode_length",
    "FeatureConfig",
    "GpNetBuilder",
    "GpNetStructure",
    "structure_of",
    "NODE_FEATURE_DIM",
    "EDGE_FEATURE_DIM",
    "GpNet",
    "GpNetEmbedding",
    "TwoWayMessagePassing",
    "KStepMessagePassing",
    "TwoWayNoEdge",
    "GraphSageNoEdge",
    "RawFeatureEmbedding",
    "augment_with_out_edge_means",
    "make_embedding",
    "PlacementProblem",
    "random_placement",
    "ScorePolicy",
    "ReinforceConfig",
    "ReinforceTrainer",
    "EpisodeStats",
    "discounted_returns",
    "average_reward_baseline",
    "SearchTrace",
    "run_search",
]
