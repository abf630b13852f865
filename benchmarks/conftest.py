"""Benchmark harness plumbing.

Each benchmark regenerates one of the paper's tables/figures via its
experiment module, persists the rendered text under ``results/``, and
asserts the qualitative shape the paper reports.  The scale preset is
selected by ``REPRO_SCALE`` (default: quick).
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

# The experiments that train an agent (GiPH, a GiPH variant or a learned
# baseline), and the ablation with its maskless agent: their canonical
# reports are pinned byte for byte in tests/golden/digests.json.
GOLDEN_REPORTS = (
    "fig4", "fig5", "fig6", "fig7", "fig9", "fig11", "fig14", "fig15", "fig16", "table6", "ablation",
)


@pytest.fixture
def run_experiment(golden):
    """Run an experiment module once, persist its report and print it.

    A quick-scale seed-0 report of :data:`GOLDEN_REPORTS` is held to its
    digest (the root ``conftest.py`` has the rules).
    """

    def _run(module, seed: int = 0):
        from repro.experiments import active_scale

        scale = active_scale()
        report = module.run(scale, seed=seed)
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{report.experiment_id}_{scale.name}.txt"
        path.write_text(report.text + "\n")
        print(report.text)
        if scale.name == "quick" and seed == 0 and report.experiment_id in GOLDEN_REPORTS:
            golden.check("reports", report.experiment_id, report.to_json().encode())
        return report

    return _run


def non_increasing(series, tol: float = 1e-9) -> bool:
    arr = np.asarray(list(series), dtype=float)
    return bool((np.diff(arr) <= tol).all())


def finite_positive(values) -> bool:
    arr = np.asarray(list(values), dtype=float)
    return bool(np.isfinite(arr).all() and (arr > 0).all())
