"""``--compare A B``: the regression check later PRs are held to.

Each side is one result file written by ``--out`` or several joined by
commas (their per-metric medians are compared — the way to compare two
*sets* of runs).  Every workload x end-to-end metric pair gets a row
with both values, the relative change in the metric's "worse"
direction, the bound applied and PASS or REGRESSED.  A metric or
workload missing from either side cannot be shown to hold its bound, so
it is REGRESSED.  Results taken with different ``--seconds`` (other op
counts) or with ``--trace 1`` (no end-to-end metrics) are refused.
"""

from __future__ import annotations

import json
import pathlib
import statistics

__all__ = ["SAME_SEED_BOUNDS", "compare", "load_side"]

#: The same-seed gate (the issue's bounds).  Two results of one seed ran
#: identical inputs: only machine noise separates them, and
#: ``placement_slr_mean`` must repeat.  ``BENCHMARK.json`` has room for
#: one bound per metric and its driver applies that one across runs of
#: *different* seeds, where the inputs differ too, so it holds the wider,
#: cross-seed bounds; ``--compare`` applies them only when the seeds differ.
SAME_SEED_BOUNDS = {
    "setup_s": 0.10,
    "op_cal_ms_p50": 0.06,
    "op_cal_ms_p90": 0.10,
    "work_per_cal_s": 0.06,
    "peak_rss_mb": 0.05,
    "placement_slr_mean": 0.001,
}


def load_side(spec: str, names: list[str]) -> tuple[dict[str, dict], list[int], float]:
    """The comma-separated result files in ``spec`` as ``{workload:
    {"correct": bool, "metrics": {name: median, or None if a run lacks
    it}}}``, the seeds they were taken at and their ``--seconds``."""
    files = [json.loads(pathlib.Path(path).read_text()) for path in spec.split(",")]
    if any(run["trace"] for run in files):
        raise ValueError(f"{spec}: a --trace 1 result has no end-to-end metrics")
    if len({run["seconds"] for run in files}) > 1:
        raise ValueError(f"{spec}: results taken at different --seconds")
    side: dict[str, dict] = {}
    for workload in files[0]["workloads"]:
        records = [run["workloads"][workload] for run in files if workload in run["workloads"]]
        side[workload] = {
            "correct": len(records) == len(files) and all(r["correct"] for r in records),
            "metrics": {
                name: statistics.median(r["metrics"][name]["value"] for r in records)
                if all(name in r["metrics"] for r in records) else None
                for name in names
            },
        }
    return side, sorted(run["seed"] for run in files), files[0]["seconds"]


def compare(benchmark: dict, spec_a: str, spec_b: str) -> tuple[list[str], bool]:
    """Report lines and whether B regressed against A on any row."""
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    a, seeds_a, seconds_a = load_side(spec_a, names)
    b, seeds_b, seconds_b = load_side(spec_b, names)
    if seconds_a != seconds_b:
        raise ValueError(f"A ran --seconds {seconds_a}, B --seconds {seconds_b}: other op counts")
    same_seed = seeds_a == seeds_b or len({*seeds_a, *seeds_b}) == 1
    lines = [
        f"same seed ({seeds_a[0] if len(set(seeds_a)) == 1 else seeds_a}): same-seed bounds"
        if same_seed else
        f"seeds differ (A {seeds_a}, B {seeds_b}): cross-seed bounds of BENCHMARK.json",
        f"{'workload':15s} {'metric':20s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'bound':>7s}",
    ]
    regressed = False
    for workload in a:
        if workload not in b:
            lines.append(f"{workload:15s} missing from B: REGRESSED")
            regressed = True
            continue
        if not b[workload]["correct"]:
            lines.append(f"{workload:15s} B has failed ops or checks: REGRESSED")
            regressed = True
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            if va is None or vb is None:
                lines.append(f"{workload:15s} {name:20s} missing from "
                             f"{'A' if va is None else 'B'}: REGRESSED")
                regressed = True
                continue
            bound = min(metric["bound"], SAME_SEED_BOUNDS[name]) if same_seed else metric["bound"]
            change = (vb - va) / va if va else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "PASS" if worse <= bound else "REGRESSED"
            regressed |= verdict == "REGRESSED"
            lines.append(
                f"{workload:15s} {name:20s} {va:12.4f} {vb:12.4f} {worse:+9.2%} "
                f"{bound:7.2%} {verdict}"
            )
    return lines, regressed
