"""Full-tree lint speed: the CI gate must stay cheap enough to run first.

The `lint` CI job fronts every other job (``needs: lint`` fail-fast), so
the analyzer's whole-tree cost bounds how quickly a broken push is
reported.  Times ``run_lint()`` over the real installed tree — parse,
all 8 rules, suppressions, baseline — and gates the wall clock, so
rule-portfolio growth fails a test instead of silently eating CI budget.
"""

import time

from repro.analysis import run_lint

# One full parse + analysis of ~120 modules lands well under a second
# locally; the gate is generous for shared CI runners.
MAX_SECONDS = 5.0


def test_full_tree_lint_under_budget():
    run_lint()  # warm the interpreter (ast import, bytecode caches)

    start = time.perf_counter()
    result = run_lint()
    elapsed = time.perf_counter() - start

    per_module_ms = elapsed / result.modules * 1e3
    print(
        f"\nrepro lint full tree: {elapsed:.3f} s "
        f"({result.modules} modules, {len(result.rules)} rules, "
        f"{per_module_ms:.2f} ms/module)"
    )
    assert result.clean, [f.location for f in result.findings]
    assert elapsed < MAX_SECONDS
