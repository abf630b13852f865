"""The lint engine: run rules and apply inline suppressions.

``run_lint`` is the single entry point used by the CLI, the tests, and
the speed benchmark.  The pipeline is: parse the tree once, run every
selected rule over every module (plus each rule's cross-module
``finish`` pass), dedupe, split off inline-suppressed findings, and
hand back a :class:`LintResult` with both buckets so callers can render
or assert on either.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from .findings import Finding
from .loader import LintTree, load_tree
from .rules import LintContext, Rule, get_rules
from .suppressions import collect_suppressions

__all__ = ["LintResult", "findings_payload", "render_text", "run_lint"]


def _default_package_dir() -> pathlib.Path:
    """The installed ``repro`` package directory (``<repo>/src/repro``)."""
    return pathlib.Path(__file__).resolve().parent.parent


@dataclass
class LintResult:
    """Outcome of one lint run, bucketed.

    ``findings`` are the live violations (what makes the exit code
    non-zero); ``suppressed`` were waived inline.
    """

    findings: list[Finding]
    suppressed: list[Finding] = field(default_factory=list)
    modules: int = 0
    rules: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def run_lint(
    root: str | pathlib.Path | None = None,
    rule_ids: list[str] | None = None,
    package: str = "repro",
) -> LintResult:
    """Lint the package tree under ``root`` (default: this installation)."""
    package_dir = pathlib.Path(root) if root is not None else _default_package_dir()
    tree = load_tree(package_dir, package=package)
    rules = get_rules(rule_ids)
    live, suppressed = _apply_suppressions(tree, _run_rules(tree, rules))
    return LintResult(
        findings=live,
        suppressed=suppressed,
        modules=len(tree),
        rules=[rule.id for rule in rules],
    )


def _run_rules(tree: LintTree, rules: list[Rule]) -> list[Finding]:
    ctx = LintContext(tree)
    found: list[Finding] = []
    for module in tree:
        for rule in rules:
            found.extend(rule.check_module(module, ctx))
    for rule in rules:
        found.extend(rule.finish(ctx))
    # Dedupe exact repeats (e.g. an assign inside nested span bodies is
    # reached once per enclosing `with`), keep stable order.
    seen: set[tuple] = set()
    unique: list[Finding] = []
    for finding in sorted(found):
        key = (finding.rel, finding.line, finding.col, finding.rule, finding.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(finding)
    return unique


def _apply_suppressions(
    tree: LintTree, findings: list[Finding]
) -> tuple[list[Finding], list[Finding]]:
    waivers = {module.rel: collect_suppressions(module) for module in tree}
    live: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        waiver = waivers.get(finding.rel)
        if waiver is not None and waiver.is_suppressed(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            live.append(finding)
    return live, suppressed


def render_text(result: LintResult, verbose: bool = False) -> str:
    """Human-readable report, one block per finding."""
    lines: list[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location}: [{finding.rule}] {finding.message}")
        if finding.code:
            lines.append(f"    {finding.code}")
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    summary = (
        f"{len(result.findings)} finding(s), "
        f"{len(result.suppressed)} suppressed "
        f"({result.modules} modules, {len(result.rules)} rules)"
    )
    if verbose:
        for finding in result.suppressed:
            lines.append(f"suppressed {finding.location}: [{finding.rule}]")
    if lines:
        lines.append("")
    lines.append(summary)
    return "\n".join(lines)


def findings_payload(result: LintResult) -> dict:
    """JSON-serializable payload for ``repro lint --json`` / CI artifacts."""
    return {
        "version": 1,
        "clean": result.clean,
        "modules": result.modules,
        "rules": result.rules,
        "findings": [finding.as_dict() for finding in result.findings],
        "suppressed": [finding.as_dict() for finding in result.suppressed],
    }
