"""Concurrency-boundary rules.

Two contracts with no runtime guard today:

* payloads and contexts crossing an :class:`ExecutionBackend` boundary
  are pickled (fork) or must at least be treated as shippable — a
  closure capturing a socket, lock, open store handle, or live
  ``EvaluatorPool`` dies at pickle time on one backend and silently
  shares mutable state on another;
* the serve daemon's shared evaluator caches are single-threaded by
  routing every cache-mutating evaluation through the
  ``RequestBatcher`` drain thread — a handler that calls
  ``evaluate``/``evaluate_many`` directly reintroduces the race the
  batcher exists to prevent.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..findings import Finding
from ..loader import ModuleInfo
from .base import LintContext, Rule, call_name, iter_functions

__all__ = ["DrainThreadOwnershipRule", "FanoutPickleSafetyRule"]

# Constructors whose results must never ride a fan-out payload/context.
# Matched on the callee's last dotted segment, except `open` (exact).
_UNPICKLABLE_LAST = {
    "Lock",
    "RLock",
    "Condition",
    "Event",
    "Semaphore",
    "BoundedSemaphore",
    "socket",
    "EvaluatorPool",
    "RequestBatcher",
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
    "RunStore",
}

_FANOUT_ATTRS = {"fanout"}

_MUTATING_ATTRS = {"evaluate", "evaluate_many"}
_MUTATING_NAMES = {"coalesce_evaluate"}

# The two modules allowed to mutate evaluator caches in the serve
# package: the batcher's drain thread owns shared-pool evaluation, and
# sessions run the batch path (per-tenant pools serialized by the
# per-session lock).
_DRAIN_OWNERS = ("serve/batcher.py", "serve/session.py")


def _is_unpicklable_constructor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = call_name(value)
    if name == "open":
        return True
    return name.rsplit(".", 1)[-1] in _UNPICKLABLE_LAST


def _free_names(fn: ast.Lambda | ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names a function loads but does not bind itself (approximate)."""
    args = fn.args
    bound = {
        a.arg
        for a in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            *([args.vararg] if args.vararg else []),
            *([args.kwarg] if args.kwarg else []),
        ]
    }
    loaded: set[str] = set()
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for statement in body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                else:
                    bound.add(node.id)
            elif isinstance(node, ast.comprehension):
                for target in ast.walk(node.target):
                    if isinstance(target, ast.Name):
                        bound.add(target.id)
    return loaded - bound


class FanoutPickleSafetyRule(Rule):
    """Fan-out payloads must not capture known-unpicklable objects."""

    id = "fanout-pickle-safety"
    title = "unpicklable capture crosses a fan-out"
    protects = (
        "backend interchangeability: every backend pickles a task's "
        "private copy of the broadcast context, so a closure or context "
        "holding a socket/lock/open store/live pool crashes the fan-out — "
        "the same call site must work on every backend"
    )
    hint = (
        "pass plain data (paths, specs, seed keys) and reconstruct the "
        "resource inside the task; see _TrainGridContext/_EvalContext for "
        "the broadcast-context idiom"
    )

    def check_module(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        for qualname, function, _cls in iter_functions(module.tree):
            yield from self._check_scope(module, qualname, function)

    def _check_scope(
        self,
        module: ModuleInfo,
        qualname: str,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterable[Finding]:
        tainted: dict[str, str] = {}
        local_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _is_unpicklable_constructor(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        tainted[target.id] = call_name(node.value)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not function:
                    local_defs[node.name] = node
            elif isinstance(node, ast.withitem):
                if _is_unpicklable_constructor(node.context_expr) and isinstance(
                    node.optional_vars, ast.Name
                ):
                    tainted[node.optional_vars.id] = call_name(node.context_expr)
        if not tainted:
            return
        for node in ast.walk(function):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _FANOUT_ATTRS
            ):
                continue
            arguments = list(node.args) + [kw.value for kw in node.keywords]
            for argument in arguments:
                if isinstance(argument, ast.Name) and argument.id in tainted:
                    yield self.finding(
                        module,
                        argument,
                        f"{argument.id} (a {tainted[argument.id]}) is shipped "
                        "across a fan-out boundary; it cannot pickle and must "
                        "not be shared between workers",
                    )
                    continue
                captured: set[str] = set()
                if isinstance(argument, ast.Lambda):
                    captured = _free_names(argument) & set(tainted)
                elif isinstance(argument, ast.Name) and argument.id in local_defs:
                    captured = _free_names(local_defs[argument.id]) & set(tainted)
                for name in sorted(captured):
                    yield self.finding(
                        module,
                        argument,
                        f"task function captures {name} (a {tainted[name]}) "
                        "across a fan-out boundary; reconstruct it inside the "
                        "task from plain data instead",
                    )


class DrainThreadOwnershipRule(Rule):
    """Only the batcher drain loop / batch path may mutate evaluator caches."""

    id = "drain-thread-ownership"
    title = "evaluator mutation outside the drain thread"
    protects = (
        "the serve daemon's lock-free shared evaluator caches: connection "
        "threads submit to the RequestBatcher and wait — if a server "
        "handler (or anything it reaches) evaluates directly, two threads "
        "mutate one LRU concurrently"
    )
    hint = (
        "route the scoring through self.batcher.submit/submit_many (the "
        "drain thread owns all cache-mutating evaluation), or move the "
        "logic into the session batch path"
    )

    def check_module(self, module: ModuleInfo, ctx: LintContext) -> Iterable[Finding]:
        if not module.rel.startswith("serve/") or module.rel in _DRAIN_OWNERS:
            return
        graph, functions = self._call_graph(module)
        entries = [
            qual
            for qual, (_node, cls) in functions.items()
            if cls is not None
            and cls.endswith("Server")
            and (
                qual.endswith(("._dispatch", "._serve_request"))
                or qual.split(".")[-1].startswith("_handle")
            )
        ]
        reachable = self._reachable(graph, entries)
        for qual, (node, _cls) in functions.items():
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = call_name(call)
                last = name.rsplit(".", 1)[-1]
                mutating = (
                    isinstance(call.func, ast.Attribute) and call.func.attr in _MUTATING_ATTRS
                ) or last in _MUTATING_NAMES
                if not mutating:
                    continue
                if name.startswith("self.batcher."):
                    continue
                via = (
                    f" (reachable from request handler {self._entry_path(graph, entries, qual)})"
                    if qual in reachable
                    else ""
                )
                yield self.finding(
                    module,
                    call,
                    f"{qual} calls {name or last}() outside the batcher drain "
                    f"thread{via}; shared evaluator caches are single-threaded "
                    "by contract",
                )

    @staticmethod
    def _call_graph(
        module: ModuleInfo,
    ) -> tuple[dict[str, set[str]], dict[str, tuple[ast.AST, str | None]]]:
        """Intra-module call graph: ``self.m()`` and bare ``f()`` edges."""
        functions: dict[str, tuple[ast.AST, str | None]] = {}
        for qualname, node, cls in iter_functions(module.tree):
            functions[qualname] = (node, cls)
        graph: dict[str, set[str]] = {qual: set() for qual in functions}
        for qual, (node, cls) in functions.items():
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                name = call_name(call)
                if name.startswith("self.") and name.count(".") == 1 and cls:
                    callee = f"{cls}.{name.split('.')[1]}"
                    if callee in functions:
                        graph[qual].add(callee)
                elif name and "." not in name and name in functions:
                    graph[qual].add(name)
        return graph, functions

    @staticmethod
    def _reachable(graph: dict[str, set[str]], entries: list[str]) -> set[str]:
        seen: set[str] = set()
        stack = list(entries)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(graph.get(current, ()))
        return seen

    @staticmethod
    def _entry_path(
        graph: dict[str, set[str]], entries: list[str], target: str
    ) -> str:
        """Shortest entry -> target chain, rendered ``a -> b -> c``."""
        from collections import deque

        queue = deque([(entry, [entry]) for entry in sorted(entries)])
        seen: set[str] = set()
        while queue:
            current, path = queue.popleft()
            if current == target:
                return " -> ".join(path)
            if current in seen:
                continue
            seen.add(current)
            for callee in sorted(graph.get(current, ())):
                queue.append((callee, path + [callee]))
        return target
