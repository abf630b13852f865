"""Inline waiver parsing edge cases, and the shipped waivers' reasons."""

from __future__ import annotations

import pathlib
import re

import repro
from repro.analysis import load_tree, run_lint
from repro.analysis.suppressions import collect_suppressions

_WAIVER = re.compile(r"#\s*repro:\s*lint-ok\[[^\]]*\](.*)")


def test_multiple_rule_ids_in_one_waiver(lint):
    result = lint(
        {
            "baselines/agent.py": (
                "import numpy as np\n"
                "class A:\n"
                "    def __init__(self):\n"
                "        self.rng = np.random.default_rng(0)  "
                "# repro: lint-ok[rng-constant-seed, rng-stored-advancing]\n"
            )
        },
        rule_ids=["rng-constant-seed", "rng-stored-advancing"],
    )
    assert result.findings == []
    assert len(result.suppressed) == 2


def test_bare_lint_ok_waives_nothing(lint):
    result = lint(
        {
            "baselines/agent.py": (
                "import numpy as np\n"
                "class A:\n"
                "    def __init__(self):\n"
                "        self.rng = np.random.default_rng(0)  # repro: lint-ok\n"
            )
        }
    )
    assert len(result.findings) == 2
    assert result.suppressed == []


def test_empty_waiver_brackets_waive_nothing(lint):
    result = lint(
        {
            "core/m.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(0)  # repro: lint-ok[] no rule named\n"
            )
        },
        rule_ids=["rng-constant-seed"],
    )
    assert len(result.findings) == 1
    assert result.suppressed == []


def test_waiver_for_a_different_rule_does_not_apply(lint):
    result = lint(
        {
            "core/m.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(0)  # repro: lint-ok[canonical-json]\n"
            )
        },
        rule_ids=["rng-constant-seed"],
    )
    assert len(result.findings) == 1
    assert result.suppressed == []


def test_standalone_waiver_does_not_leak_past_the_next_statement(lint):
    result = lint(
        {
            "core/m.py": (
                "import numpy as np\n"
                "# repro: lint-ok[rng-constant-seed]\n"
                "a = np.random.default_rng(0)\n"
                "b = np.random.default_rng(1)\n"
            )
        },
        rule_ids=["rng-constant-seed"],
    )
    assert [f.line for f in result.findings] == [4]
    assert len(result.suppressed) == 1


def test_every_shipped_waiver_gives_its_reason():
    """A waiver keeps a finding on purpose, so it says why: text after the
    bracket, or a plain comment line directly above it."""
    package_dir = pathlib.Path(repro.__file__).parent
    unexplained = []
    waivers = 0
    for path in sorted(package_dir.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for index, text in enumerate(lines):
            match = _WAIVER.search(text)
            if match is None:
                continue
            waivers += 1
            above = lines[index - 1].strip() if index else ""
            explained_above = (
                above.startswith("#") and above != "#" and not _WAIVER.search(above)
            )
            if not (match.group(1).strip() or explained_above):
                unexplained.append(f"{path.relative_to(package_dir)}:{index + 1}")
    assert waivers > 0
    assert unexplained == [], unexplained


def test_every_shipped_waiver_keeps_a_finding():
    """A waiver whose finding has gone is a hole for the next violation
    on that line: each (line, rule) a shipped waiver covers must match a
    suppressed finding of the real tree."""
    result = run_lint()
    kept = {(f.rel, f.line, f.rule) for f in result.suppressed}
    waived = set()
    for module in load_tree(pathlib.Path(repro.__file__).parent):
        waivers = collect_suppressions(module)
        for line in range(1, len(module.lines) + 1):
            waived.update(
                (module.rel, line, rule) for rule in result.rules
                if waivers.is_suppressed(line, rule)
            )
    assert waived, "the shipped tree should carry its known waivers"
    assert sorted(waived - kept) == []
