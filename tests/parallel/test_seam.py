"""Seam guard: ``backend=`` is the only spelling of where work runs.

Outside ``repro.parallel`` nothing imports the pool module and nothing
takes a ``workers`` parameter; every fanned experiment takes ``backend``.
The package sits below the model code: it imports nothing from it, at
module or at function level, and the trainer that fans out through it
needs no deferred import to dodge a cycle.
"""

import ast
import importlib
import inspect
import pathlib

import repro
import repro.parallel
from repro.analysis import load_tree
from repro.experiments.registry import get_module, parallel_experiment_ids
from repro.parallel import ExecutionBackend

TREE = load_tree(pathlib.Path(repro.__file__).parent)


def test_only_the_parallel_package_imports_the_pool_module():
    importers = {m.name for m in TREE.importers_of("repro.parallel.pool")}
    assert importers, "import graph lost the pool module"
    assert all(name.startswith("repro.parallel") for name in importers), importers


def test_fanout_is_the_only_way_to_run_tasks():
    # No persistent-pool handle: a backend's public methods are the
    # fan-out, stage memoization and its direct executor.
    assert not hasattr(ExecutionBackend, "pool")
    methods = {
        name
        for name, member in vars(ExecutionBackend).items()
        if not name.startswith("_") and callable(member)
    }
    assert methods == {"fanout", "compute", "direct"}
    assert not any("pool" in name.lower() for name in repro.parallel.__all__)


def test_no_workers_parameter_outside_the_parallel_package():
    offenders = []
    for info in TREE:
        if info.name.startswith("repro.parallel"):
            continue
        module = importlib.import_module(info.name)
        owners = [module] + [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == info.name
        ]
        for owner in owners:
            for name, member in vars(owner).items():
                fn = inspect.unwrap(getattr(member, "__func__", member))
                if not inspect.isfunction(fn) or fn.__module__ != info.name:
                    continue
                if "workers" in inspect.signature(fn).parameters:
                    offenders.append(f"{info.name}:{owner.__name__}.{name}")
    assert offenders == []


def test_every_parallel_experiment_run_accepts_backend():
    for experiment_id in parallel_experiment_ids():
        parameters = inspect.signature(get_module(experiment_id).run).parameters
        assert "backend" in parameters, experiment_id


MODEL_PACKAGES = ("repro.core", "repro.runtime", "repro.baselines", "repro.experiments")


def test_the_parallel_package_imports_no_model_code():
    # The resolved graph is built with ``ast.walk``, so it holds
    # function-level imports as well as module-level ones.
    offenders = {
        f"{info.name} -> {target}"
        for info in TREE
        if info.name.startswith("repro.parallel")
        for target in info.imports
        if target.startswith(MODEL_PACKAGES)
    }
    assert offenders == set()


def test_the_trainer_defers_no_package_import():
    trainer = TREE.by_name["repro.core.reinforce"]
    assert "repro.parallel" in trainer.imports, "import graph lost the trainer's fan-out"
    deferred = [
        f"line {node.lineno}"
        for scope in ast.walk(trainer.tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(scope)
        if (isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("repro")))
        or (isinstance(node, ast.Import) and any(a.name.startswith("repro") for a in node.names))
    ]
    assert deferred == []
