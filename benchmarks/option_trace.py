"""Which defaulted parameters of ``repro`` does a shipped path ever set?

Drives the shipped paths in one process — every experiment at quick
scale, a CLI session (generate, train, test, experiment, scenario, shard
plan/run/merge, trace, lint) and an in-process ``PlacementServer`` driven
by ``run_load`` for every served policy and by every client op — under a
profile hook.  For every call of a ``src/repro`` function or method with
defaulted parameters, the hook records whether each such parameter was
bound to a value other than its default.  Prints one line per parameter
that never left its default on any call, with the function's call count::

    PYTHONPATH=src python -m benchmarks.option_trace [--out FILE.json]

A parameter some path sets is not printed, nor is one of a function no
path calls.  Runs inline in one process (about a minute on two cores);
``--out`` also writes every (function, parameter) row as JSON.  What the
drive itself prints (reports, CLI output) goes to stderr, so stdout holds
only the list.

``--functions`` instead prints every function, method and property of
the package that the drive never calls, with its line count (nested
closures count toward the function that defines them)::

    PYTHONPATH=src python -m benchmarks.option_trace --functions
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import sys
import tempfile
import threading
from collections import Counter

import repro


def _defaulted(func) -> list[tuple[str, object]]:
    try:
        params = inspect.signature(func).parameters.values()
    except (TypeError, ValueError):
        return []
    return [
        (p.name, p.default)
        for p in params
        if p.default is not inspect.Parameter.empty
        and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def _members(cls) -> list:
    """The functions a class defines: methods, static and class methods,
    and property accessors."""
    found = []
    for member in vars(cls).values():
        if isinstance(member, property):
            found += [f for f in (member.fget, member.fset, member.fdel) if f is not None]
        else:
            found.append(getattr(member, "__func__", member))
    return [f for f in found if inspect.isfunction(f)]


def traced_functions() -> dict:
    """``code object -> (qualified name, [(parameter, default)])`` for every
    function, method and property accessor defined in the ``repro``
    package."""
    table = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # a re-export: traced where it is defined
            functions = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions = _members(obj)
            for func in functions:
                name = f"{module.__name__}.{func.__qualname__}"
                table[func.__code__] = (name, _defaulted(func))
    return table


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:  # arrays and other values without a truth value
        return False


class Recorder:
    """Profile hook counting calls and non-default bindings."""

    def __init__(self, table: dict) -> None:
        self.table = table
        self.calls: Counter = Counter()  # by code object
        self.set: Counter = Counter()

    def __call__(self, frame, event, arg) -> None:
        if event != "call":
            return
        entry = self.table.get(frame.f_code)
        if entry is None:
            return
        self.calls[frame.f_code] += 1
        name, defaults = entry
        values = frame.f_locals
        for param, default in defaults:
            if param in values and not _is_default(values[param], default):
                self.set[(name, param)] += 1


def drive(tmp: pathlib.Path) -> None:
    """Every shipped entry point, inline."""
    from repro.cli import main
    from repro.core import PlacementProblem
    from repro.experiments import active_scale
    from repro.experiments.registry import EXPERIMENT_IDS, get_module
    from repro.scenarios import DEFAULT_REGISTRY, materialize
    from repro.serve.client import ServeClient
    from repro.serve.load import LoadConfig, run_load
    from repro.serve.server import PlacementServer, ServeConfig, default_policy_factories

    scale = active_scale("quick")
    for experiment in EXPERIMENT_IDS:
        get_module(experiment).run(scale, seed=0)
    plan = tmp / "plan"
    for argv in (
        ["generate", "--num-tasks", "6", "--num-devices", "3"],
        ["train", "--episodes", "2", "--num-tasks", "6", "--num-devices", "3",
         "--logdir", str(tmp / "checkpoints")],
        ["experiment", "table1"],
        ["scenario", "list"],
        ["scenario", "run", "edge-churn", "--max-events", "2"],
        ["shard", "plan", "fig15", "--shards", "2", "--scale", "quick", "--out", str(plan)],
        ["shard", "run", str(plan / "shard-0of2.json")],
        ["shard", "run", str(plan / "shard-1of2.json")],
        ["shard", "merge", str(plan)],
        ["trace", str(plan / "store")],
        ["lint"],
    ):
        main(argv)
    run_dir = next((tmp / "checkpoints").iterdir())
    main(["test", "--run-folder", str(run_dir), "--num-testing-cases", "2"])

    socket_path = str(tmp / "serve.sock")
    server = PlacementServer(ServeConfig(socket_path=socket_path)).start()
    try:
        for policy in sorted(default_policy_factories()):
            run_load(LoadConfig(socket_path, ("stable-cluster", "edge-churn"), policy=policy,
                                clients=2, events_per_client=2))
        mat = materialize(DEFAULT_REGISTRY.get("stable-cluster", seed=0))
        sets = PlacementProblem(mat.initial_graphs[0], mat.initial_network).feasible_sets
        with ServeClient(socket_path) as client:
            client.ping()
            session = client.open_session("edge-churn", policy="task-eft", seed=1)["session"]
            client.event(session)
            client.report(session, include_timing=True)
            client.evaluate("stable-cluster", [[s[0] for s in sets]], seed=0)
            client.stats()
            client.close_session(session)
    finally:
        server.stop()


def _print_uncalled(recorder: Recorder) -> None:
    """One line per function the drive never called, with its line count.

    Methods generated at run time (dataclass ``__init__`` and the like)
    have no source lines and are left out."""
    package = os.path.dirname(repro.__file__)
    written = [code for code in recorder.table if code.co_filename.startswith(package)]
    rows = sorted(
        (recorder.table[code][0], len(inspect.getsourcelines(code)[0]))
        for code in written
        if not recorder.calls[code]
    )
    for name, lines in rows:
        print(f"{lines:>9d}  {name}")
    print(f"{len(rows)} of {len(written)} functions never called "
          f"({sum(lines for _, lines in rows)} lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write every (function, parameter) row as JSON")
    parser.add_argument("--functions", action="store_true",
                        help="print the functions the drive never calls instead")
    args = parser.parse_args(argv)
    recorder = Recorder(traced_functions())
    with tempfile.TemporaryDirectory(prefix="repro-option-trace-") as tmp:
        os.chdir(tmp)  # run logs land here; every repro module is imported already
        threading.setprofile(recorder)
        sys.setprofile(recorder)
        try:
            with contextlib.redirect_stdout(sys.stderr):
                drive(pathlib.Path(tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    if args.functions:
        _print_uncalled(recorder)
        return 0
    rows = [
        {"function": name, "parameter": param, "calls": recorder.calls[code],
         "non_default_calls": recorder.set[(name, param)]}
        for code, (name, defaults) in recorder.table.items()
        if recorder.calls[code]
        for param, _ in defaults
    ]
    one_valued = sorted((r for r in rows if not r["non_default_calls"]),
                        key=lambda r: (r["function"], r["parameter"]))
    for row in one_valued:
        print(f"{row['calls']:>9d}  {row['function']}({row['parameter']})")
    print(f"{len(one_valued)} of {len(rows)} defaulted parameters never left their default")
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
