"""Module loader: relative paths, dotted names, import-graph edges."""

from __future__ import annotations

import pytest

from repro.analysis import load_tree


def test_tree_indexes_modules_by_rel_and_name(make_tree):
    root = make_tree(
        {
            "core/gnn.py": "x = 1\n",
            "serve/server.py": "y = 2\n",
            "__init__.py": "",
        }
    )
    tree = load_tree(root)
    assert len(tree) == 3
    module = tree.get_rel("core/gnn.py")
    assert module is not None
    assert module.name == "repro.core.gnn"
    assert tree.by_name["repro.serve.server"].rel == "serve/server.py"


def test_absolute_and_relative_imports_resolve_to_package_modules(make_tree):
    root = make_tree(
        {
            "core/gnn.py": "x = 1\n",
            "core/__init__.py": "",
            "serve/server.py": (
                "from repro.core import gnn\n"
                "from ..core.gnn import x\n"
                "import repro.core.gnn\n"
                "import json\n"
            ),
            "serve/__init__.py": "",
        }
    )
    tree = load_tree(root)
    server = tree.get_rel("serve/server.py")
    assert "repro.core.gnn" in server.imports
    # stdlib imports don't produce intra-package edges
    assert all(name.startswith("repro") for name in server.imports)
    importers = [m.name for m in tree if "repro.core.gnn" in m.imports]
    assert "repro.serve.server" in importers


def test_line_text_strips_the_source_line(make_tree):
    root = make_tree({"mod.py": "def f():\n    b  =  2\n"})
    module = load_tree(root).get_rel("mod.py")
    assert module.line_text(2) == "b  =  2"
    assert module.line_text(99) == ""


def test_syntax_error_propagates_with_filename(make_tree):
    root = make_tree({"bad.py": "def broken(:\n"})
    with pytest.raises(SyntaxError):
        load_tree(root)
