"""Registry of the paper's experiment modules.

The single source of truth the CLI dispatches and generates help from:
experiment ids, module resolution with a clean error for unknown ids,
and which experiments fan out over a ``backend``.  Help strings derive
from this module, so they cannot drift from the modules that actually
exist / actually accept ``backend`` (``tests/test_cli.py`` locks the id
list to the package contents and the static parallel/serial split to
``run`` signature introspection).

Importing this module is cheap by design — the id tuples are static and
:func:`get_module` imports lazily — because the CLI builds its help from
it on every invocation, including ``repro --help`` and non-experiment
subcommands.
"""

from __future__ import annotations

import importlib
import inspect
from types import ModuleType

__all__ = [
    "EXPERIMENT_IDS",
    "SERIAL_EXPERIMENT_IDS",
    "UnknownExperimentError",
    "get_module",
    "supports_backend",
    "parallel_experiment_ids",
    "serial_experiment_ids",
]

# Presentation order: figures first, then tables, then extras.
EXPERIMENT_IDS = (
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig9",
    "fig11",
    "fig14",
    "fig15",
    "fig16",
    "table1",
    "table6",
    "table7",
    "ablation",
)

# Serial by design: table1 is constants + a closed-form fit, table7 times
# wall clock (concurrency would corrupt its samples).  Declared statically
# so help generation never has to import the experiment modules;
# tests/test_cli.py asserts this split matches every module's actual
# ``run`` signature, which is what keeps it from drifting.
SERIAL_EXPERIMENT_IDS = ("table1", "table7")


class UnknownExperimentError(KeyError):
    """Raised for ids outside the registry; carries a user-facing message."""

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id
        self.message = (
            f"unknown experiment {experiment_id!r}; valid ids: "
            + ", ".join(EXPERIMENT_IDS)
        )
        super().__init__(self.message)


def get_module(experiment_id: str) -> ModuleType:
    """The experiment module for ``experiment_id``.

    Validates against the registry first, so a typo surfaces as an
    :class:`UnknownExperimentError` naming every valid id rather than a
    raw ``ModuleNotFoundError`` traceback out of ``importlib``.
    """
    if experiment_id not in EXPERIMENT_IDS:
        raise UnknownExperimentError(experiment_id)
    return importlib.import_module(f"repro.experiments.{experiment_id}")


def supports_backend(experiment_id: str) -> bool:
    """Whether the experiment's ``run`` accepts an execution ``backend``.

    Every experiment with a fan-out grid does; table1/table7 are serial
    by design and do not.  Introspects the module's ``run`` signature
    (importing just that module), so dispatch follows the code even if
    the static split ever disagreed — and the drift-guard test would
    fail loudly first.  The CLI and the shard orchestrator dispatch on
    this, so an experiment that cannot fan out fails with a clean
    registry-level error instead of a ``TypeError`` out of its ``run``.
    """
    return "backend" in inspect.signature(get_module(experiment_id).run).parameters


def parallel_experiment_ids() -> tuple[str, ...]:
    """Ids whose ``run`` fans out over a ``backend``, in registry order."""
    return tuple(i for i in EXPERIMENT_IDS if i not in SERIAL_EXPERIMENT_IDS)


def serial_experiment_ids() -> tuple[str, ...]:
    """Ids that run on one process by design (timing/constant tables)."""
    return SERIAL_EXPERIMENT_IDS
