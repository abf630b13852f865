"""Fixture-tree helpers for the lint suite.

Rules key off package-relative paths (``baselines/x.py``,
``serve/server.py``), so tests build miniature package trees under
``tmp_path`` and lint those — never the real tree — keeping every case
hermetic.  A fixture tree that needs the volatile-keys contract ships
its own ``experiments/base.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis import run_lint


@pytest.fixture
def make_tree(tmp_path):
    """``make_tree({'serve/server.py': src, ...}) -> package dir``."""

    def build(files: dict[str, str]) -> pathlib.Path:
        package_dir = tmp_path / "repro"
        for rel, source in files.items():
            path = package_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source, encoding="utf-8")
        return package_dir

    return build


@pytest.fixture
def lint(make_tree):
    """Lint a fixture tree; returns the LintResult."""

    def run(files: dict[str, str], rule_ids: list[str] | None = None):
        return run_lint(root=make_tree(files), rule_ids=rule_ids)

    return run
