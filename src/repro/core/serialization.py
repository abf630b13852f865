"""Agent checkpointing (the artifact's embedding_*.pk / policy_*.pk files).

Agents are saved as a single ``.npz`` archive: one array per parameter
plus a metadata record (embedding kind, library version, and for GiPH
its message aggregation) so a checkpoint can be restored into a freshly
constructed agent.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from .agent import GiPHAgent
from .gnn import KStepMessagePassing, TwoWayMessagePassing, make_embedding

__all__ = ["save_agent", "load_agent", "embedding_kind_of"]

_META_KEY = "__meta__"


def embedding_kind_of(agent: GiPHAgent) -> str:
    """The ``make_embedding`` kind string of an agent's GNN."""
    cls = type(agent.embedding).__name__
    mapping = {
        "TwoWayMessagePassing": "giph",
        "TwoWayNoEdge": "giph-ne",
        "GraphSageNoEdge": "graphsage-ne",
        "RawFeatureEmbedding": "giph-ne-pol",
    }
    if cls in mapping:
        return mapping[cls]
    if isinstance(agent.embedding, KStepMessagePassing):
        return f"giph-{agent.embedding.k}"
    raise ValueError(f"cannot serialize embedding of type {cls}")


def save_agent(agent: GiPHAgent, path: str | pathlib.Path) -> pathlib.Path:
    """Write the agent's parameters and metadata to ``path`` (.npz)."""
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(".npz")
    state = agent.state_dict()
    from .. import __version__

    meta = {
        "embedding_kind": embedding_kind_of(agent),
        "version": __version__,
        "parameter_names": sorted(state),
    }
    if isinstance(agent.embedding, TwoWayMessagePassing):  # the one kind that may sum
        meta["aggregation"] = agent.embedding.forward_pass.aggregation
    arrays = dict(state)
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **arrays)
    return path


def load_agent(path: str | pathlib.Path, rng: np.random.Generator) -> GiPHAgent:
    """Reconstruct an agent saved by :func:`save_agent`.

    ``rng`` seeds the fresh network construction (immediately overwritten
    by the checkpoint) and becomes the loaded agent's action-sampling rng.
    """
    path = pathlib.Path(path)
    with np.load(path) as archive:
        if _META_KEY not in archive:
            raise ValueError(f"{path} is not a repro agent checkpoint")
        meta = json.loads(bytes(archive[_META_KEY].tobytes()).decode())
        state = {name: archive[name] for name in archive.files if name != _META_KEY}
    # No key (older checkpoints) is mean; older ones record "mean" for every kind.
    kind, aggregation = meta["embedding_kind"], meta.get("aggregation", "mean")
    if kind != "giph" and aggregation != "mean":
        raise ValueError(f"{path}: a {kind!r} embedding aggregates by mean, not {aggregation!r}")
    embedding = TwoWayMessagePassing(rng, aggregation) if kind == "giph" else make_embedding(kind, rng)
    agent = GiPHAgent(rng, embedding=embedding)
    agent.load_state_dict(state)
    return agent
