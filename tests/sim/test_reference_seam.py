"""Seam guard: the event loop is the reference, and nothing ships on it.

Every shipped path scores through ``repro.runtime.fastsim.FastSimulator``;
``repro.sim.executor.simulate`` is the independent loop that tests and
the end-to-end benchmark compare it against.  Outside its own module only
the public re-exports (``repro.sim`` and ``repro``) may name it.
"""

import ast
import pathlib

import repro
from repro.analysis import load_tree

TREE = load_tree(pathlib.Path(repro.__file__).parent)

REEXPORTS = {"repro.sim.executor", "repro.sim", "repro"}


def names_simulate(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "simulate"
    if isinstance(node, ast.Attribute):
        return node.attr == "simulate"
    if isinstance(node, ast.FunctionDef):
        return node.name == "simulate"
    if isinstance(node, (ast.ImportFrom, ast.Import)):
        return any(alias.name.rsplit(".", 1)[-1] == "simulate" for alias in node.names)
    return False


def test_no_shipped_module_calls_the_event_loop():
    namers = {
        info.name: [node.lineno for node in ast.walk(info.tree) if names_simulate(node)]
        for info in TREE
    }
    assert namers["repro.sim.executor"], "the scan lost the event loop itself"
    offenders = {name: lines for name, lines in namers.items() if lines and name not in REEXPORTS}
    assert offenders == {}


def test_the_event_loop_stays_public():
    from repro.sim.executor import simulate

    assert repro.simulate is repro.sim.simulate is simulate
