"""Experiment harness: one module per paper table/figure.

Every module exposes ``run(scale, seed=0) -> ExperimentReport``; the
benchmark suite executes them all (quick preset by default; set
``REPRO_SCALE=paper`` for paper-scale runs) and asserts the paper's
qualitative shapes.

The package imports lazily (PEP 562): the CLI pulls
:mod:`repro.experiments.registry` on every invocation to generate its
help strings, and eagerly importing the 13 experiment modules (each
dragging in core/baselines/simulator machinery) here would make even
``repro --help`` pay for all of them.  Attribute access — including
``from repro.experiments import fig4`` — resolves the submodule or
harness symbol on first use.
"""

from __future__ import annotations

import importlib

from .config import PAPER, QUICK, Scale, active_scale
from .registry import (
    EXPERIMENT_IDS,
    UnknownExperimentError,
    get_module,
    parallel_experiment_ids,
    serial_experiment_ids,
)

# Lazily resolved re-exports: harness symbol -> defining submodule.
_LAZY_SYMBOLS = {
    "ExperimentReport": "base",
    "Dataset": "datasets",
    "single_network_dataset": "datasets",
    "multi_network_dataset": "datasets",
    "EvalResult": "runner",
    "HeftPolicy": "runner",
    "TrainSpec": "runner",
    "average_curves": "runner",
    "evaluate_policies": "runner",
    "train_agent": "runner",
    "train_policy_grid": "runner",
}

__all__ = [
    "Scale",
    "PAPER",
    "QUICK",
    "active_scale",
    "EXPERIMENT_IDS",
    "UnknownExperimentError",
    "get_module",
    "parallel_experiment_ids",
    "serial_experiment_ids",
    *_LAZY_SYMBOLS,
    *EXPERIMENT_IDS,
]


def __getattr__(name: str):
    if name in _LAZY_SYMBOLS:
        module = importlib.import_module(f".{_LAZY_SYMBOLS[name]}", __name__)
        value = getattr(module, name)
    elif name in EXPERIMENT_IDS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # cache: __getattr__ only fires on misses
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
