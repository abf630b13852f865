"""Seed-deterministic parallel execution: the fan-out seam.

Library code says where work runs with one argument, ``backend:
ExecutionBackend | None`` (``None`` = inline); tasks read their
broadcast state with :func:`get_context` and draw from :func:`task_rng`.
The CLI's ``--workers N`` / ``--backend NAME`` flags are spellings of
that argument, turned into a backend once by :func:`make_backend`.
Behind the seam: the backend family (inline / fork / thread /
store-mediated shard + merge) over one package-private ordered fan-out,
:func:`repro.parallel.pool.run_tasks`, whose results are bit-identical
for any worker count.  The package sits below the model code: it imports nothing from
``repro.core``, ``repro.runtime``, ``repro.baselines`` or
``repro.experiments`` (``tests/parallel/test_seam.py``) — batched REINFORCE
keeps its round payloads beside the trainer, in ``repro.core.reinforce``.
"""

from .backends import (
    ExecutionBackend,
    ExecutionBackendError,
    ForkBackend,
    InlineBackend,
    MergeBackend,
    MissingCellError,
    ShardBackend,
    ThreadBackend,
    make_backend,
)
from .pool import (
    available_workers,
    get_context,
    resolve_workers,
    task_rng,
)

__all__ = [
    "available_workers",
    "get_context",
    "resolve_workers",
    "task_rng",
    "ExecutionBackend",
    "ExecutionBackendError",
    "ForkBackend",
    "InlineBackend",
    "MergeBackend",
    "MissingCellError",
    "ShardBackend",
    "ThreadBackend",
    "make_backend",
]
