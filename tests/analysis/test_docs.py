"""Drift guards tying the rule portfolio to its documentation."""

from __future__ import annotations

import pathlib

from repro.analysis import ALL_RULES

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def test_every_rule_documents_itself():
    for rule_id, factory in ALL_RULES.items():
        rule = factory()
        assert rule.id == rule_id
        assert rule.title, rule_id
        assert rule.protects, rule_id
        assert rule.hint, rule_id


def test_every_rule_id_appears_in_the_readme_rule_table():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for rule_id in ALL_RULES:
        assert f"`{rule_id}`" in readme, (
            f"rule {rule_id!r} missing from the README static-analysis table"
        )


def test_rule_ids_are_kebab_case_and_unique():
    ids = list(ALL_RULES)
    assert len(ids) == len(set(ids))
    for rule_id in ids:
        assert rule_id == rule_id.lower()
        assert " " not in rule_id
