"""The ``repro lint`` command: exit codes, filters, JSON, missing roots.

The last test is the PR's acceptance gate: the real tree lints clean.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

CLEAN = {"core/model.py": "def f(rng):\n    return rng.random()\n"}
VIOLATION = {
    "core/model.py": "import numpy as np\nrng = np.random.default_rng(0)\n"
}


def tree(make_tree, files):
    return str(make_tree(files))


def test_exit_zero_on_a_clean_tree(make_tree, capsys):
    assert main(["lint", "--root", tree(make_tree, CLEAN)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_exit_one_on_a_seeded_violation(make_tree, capsys):
    code = main(["lint", "--root", tree(make_tree, VIOLATION)])
    assert code == 1
    out = capsys.readouterr().out
    assert "rng-constant-seed" in out
    assert "core/model.py:2" in out
    assert "hint:" in out


def test_rule_filter_limits_the_portfolio(make_tree):
    root = tree(make_tree, VIOLATION)
    assert main(["lint", "--root", root,
                 "--rule", "canonical-json"]) == 0
    assert main(["lint", "--root", root,
                 "--rule", "canonical-json", "--rule", "rng-constant-seed"]) == 1


def test_unknown_rule_id_exits_two(make_tree):
    assert main(["lint", "--root", tree(make_tree, CLEAN), "--rule", "no-such"]) == 2


def test_json_payload_written(make_tree, tmp_path):
    out = tmp_path / "out" / "findings.json"
    main(["lint", "--root", tree(make_tree, VIOLATION),
          "--json", str(out)])
    payload = json.loads(out.read_text())
    assert payload["clean"] is False
    assert payload["findings"][0]["rule"] == "rng-constant-seed"
    assert payload["findings"][0]["path"] == "core/model.py"


def test_json_payload_carries_waived_findings(make_tree, tmp_path):
    waived = {
        "core/model.py": (
            "import numpy as np\n"
            "rng = np.random.default_rng(0)  # repro: lint-ok[rng-constant-seed] fixture\n"
        )
    }
    out = tmp_path / "findings.json"
    assert main(["lint", "--root", tree(make_tree, waived),
                 "--rule", "rng-constant-seed", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["clean", "findings", "modules", "rules", "suppressed", "version"]
    assert payload["findings"] == []
    assert [(f["rule"], f["line"]) for f in payload["suppressed"]] == [("rng-constant-seed", 2)]


def test_verbose_lists_each_waived_finding(make_tree, capsys):
    waived = {
        "core/model.py": (
            "import numpy as np\n"
            "# repro: lint-ok[rng-constant-seed] fixture\n"
            "rng = np.random.default_rng(0)\n"
        )
    }
    assert main(["lint", "--root", tree(make_tree, waived),
                 "--rule", "rng-constant-seed", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "suppressed core/model.py:3" in out
    assert "0 finding(s), 1 suppressed" in out


def test_baseline_options_are_gone(make_tree, capsys):
    root = tree(make_tree, CLEAN)
    for argv in (["--baseline", "ignore"], ["--baseline-file", "lint-baseline.json"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", "--root", root, *argv])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_list_rules_prints_the_portfolio(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    from repro.analysis import ALL_RULES

    for rule_id in ALL_RULES:
        assert rule_id in out


def test_syntax_error_in_tree_exits_two(make_tree):
    assert main(["lint", "--root", tree(make_tree, {"bad.py": "def broken(:\n"})]) == 2


def test_absent_root_exits_two(tmp_path, capsys):
    missing = tmp_path / "no-such-dir"
    assert main(["lint", "--root", str(missing)]) == 2
    assert "no-such-dir" in capsys.readouterr().err


def test_root_without_python_files_exits_two(tmp_path):
    (tmp_path / "notes.txt").write_text("not python\n")
    assert main(["lint", "--root", str(tmp_path)]) == 2


def test_root_that_is_a_file_exits_two(tmp_path, capsys):
    module = tmp_path / "model.py"
    module.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
    assert main(["lint", "--root", str(module)]) == 2
    assert "not a directory" in capsys.readouterr().err


def test_the_real_tree_lints_clean():
    """Acceptance gate: zero unwaived findings on the shipped tree."""
    from repro.analysis import run_lint

    result = run_lint()
    assert result.findings == [], [f.location for f in result.findings]
