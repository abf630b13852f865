"""Module loading and the intra-package import graph.

The loader walks a package directory once, parses every ``.py`` file to
an AST, and resolves each module's imports *within the package* to
dotted module names — the import graph cross-module rules (e.g. the
drain-thread ownership check) traverse.  Parsing happens exactly once
per file per lint run; rules share the :class:`ModuleInfo` objects.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["LintTree", "ModuleInfo", "load_tree"]


@dataclass
class ModuleInfo:
    """One parsed source module of the linted package."""

    name: str  # dotted module name, e.g. "repro.serve.server"
    rel: str  # package-relative posix path, e.g. "serve/server.py"
    path: pathlib.Path
    source: str
    tree: ast.Module
    lines: list[str] = field(repr=False)
    imports: set[str] = field(default_factory=set)  # resolved intra-package names

    def line_text(self, line: int) -> str:
        """The stripped source text of a 1-based line (``""`` if absent)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    @property
    def package(self) -> str:
        """The dotted package this module lives in."""
        parts = self.name.split(".")
        if self.rel.endswith("__init__.py"):
            return self.name
        return ".".join(parts[:-1])


class LintTree:
    """Every module of the linted package, plus the import graph."""

    def __init__(self, root: pathlib.Path, package: str, modules: list[ModuleInfo]):
        self.root = root
        self.package = package
        self.modules = modules
        self.by_name = {m.name: m for m in modules}
        self.by_rel = {m.rel: m for m in modules}
        _resolve_imports(self)

    def __iter__(self) -> Iterator[ModuleInfo]:
        return iter(self.modules)

    def __len__(self) -> int:
        return len(self.modules)

    def get_rel(self, rel: str) -> ModuleInfo | None:
        return self.by_rel.get(rel)


def _module_name(package: str, rel: pathlib.Path) -> str:
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def load_tree(package_dir: str | pathlib.Path, package: str = "repro") -> LintTree:
    """Parse every ``.py`` file under ``package_dir`` into a :class:`LintTree`.

    ``package_dir`` is the directory of the package itself (the one
    holding its ``__init__.py``); ``package`` names it.  Files that do
    not parse raise ``SyntaxError``, and a root that is not a directory
    or holds no ``.py`` file raises ``FileNotFoundError`` — a tree that
    cannot be analyzed should fail loudly, not lint partially.
    """
    root = pathlib.Path(package_dir).resolve()
    if not root.is_dir():
        raise FileNotFoundError(f"lint root {root} is not a directory")
    modules: list[ModuleInfo] = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if "__pycache__" in rel.parts:
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        modules.append(
            ModuleInfo(
                name=_module_name(package, rel),
                rel=rel.as_posix(),
                path=path,
                source=source,
                tree=tree,
                lines=source.splitlines(),
            )
        )
    if not modules:
        raise FileNotFoundError(f"lint root {root} holds no .py file")
    return LintTree(root, package, modules)


def _resolve_imports(tree: LintTree) -> None:
    """Fill each module's ``imports`` with resolved intra-package names.

    Resolution is name-based (no code execution): absolute imports keep
    only those under the linted package; relative imports are expanded
    against the importing module's package.  ``from pkg import thing``
    records ``pkg.thing`` when that is a known module, else ``pkg``.
    """
    known = set(tree.by_name)

    def record(module: ModuleInfo, candidate: str) -> None:
        if candidate in known:
            module.imports.add(candidate)
            return
        # Trim trailing attributes until a known module (or nothing) is left.
        while "." in candidate:
            candidate = candidate.rsplit(".", 1)[0]
            if candidate in known:
                module.imports.add(candidate)
                return

    for module in tree:
        package_parts = module.package.split(".")
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == tree.package or alias.name.startswith(
                        tree.package + "."
                    ):
                        record(module, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    base = node.module or ""
                    if not (base == tree.package or base.startswith(tree.package + ".")):
                        continue
                else:
                    # Relative: climb level-1 packages above this module's.
                    anchor = package_parts[: len(package_parts) - (node.level - 1)]
                    if not anchor:
                        continue
                    base = ".".join(anchor + ([node.module] if node.module else []))
                record(module, base)
                for alias in node.names:
                    record(module, f"{base}.{alias.name}")
