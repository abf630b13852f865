"""``python -m benchmarks.e2e``: run the benchmark, or compare two results.

    python -m benchmarks.e2e [--workload NAME] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out FILE]
    python -m benchmarks.e2e --compare A.json[,A2.json...] B.json[,B2.json...]

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}`` — the end-to-end metrics, or with ``--trace 1``
the per-layer metrics.  Without it, every workload runs in turn, each in
a child process of its own (fresh caches, its own peak RSS).

``--seconds`` and the value after ``--trace`` are not in the issue's
command line; the benchmark contract's driver passes both
(``--seconds <run_seconds> --trace <0|1>``) on every run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

SLOWDOWN_WARNING = 1.5


def _print_record(record: dict) -> None:
    noise = record["noise"]
    print(f"== {record['workload']} (seed {record['seed']}, {noise['timed_ops']} timed ops, "
          f"work unit: {noise['work_unit']}) ==")
    for name, metric in record["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  ops_attempted {record['attempted']}  ops_failed {record['failed']}")
    for error in record["errors"]:
        print(f"  FAILED: {error}")
    print(
        f"  noise: harness.slowdown {noise['harness.slowdown']:.2f}, calibrated op time IQR "
        f"{noise['harness.op_cal_iqr_share']:.1%} of median (raw {noise['harness.op_raw_iqr_share']:.1%}), "
        f"raw op p50 {noise['harness.op_raw_ms_p50']:.1f} ms, raw set-up {noise['harness.setup_raw_s']:.3f} s"
    )
    if noise["harness.slowdown"] > SLOWDOWN_WARNING:
        print(f"  WARNING: the machine ran {noise['harness.slowdown']:.2f}x slower than the "
              f"calibration reference; calibrated metrics hold, raw ones do not")


def _contract(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def _run_one(args: argparse.Namespace) -> dict:
    os.environ.pop("REPRO_TELEMETRY", None)  # measure the shipped default
    os.environ.setdefault("REPRO_LOG", "quiet")
    began = time.perf_counter()
    try:
        from .runner import run_workload  # imports repro: the cost a cold CLI pays
    except ModuleNotFoundError as error:
        if (error.name or "").split(".")[0] != "repro":
            raise
        raise SystemExit("benchmarks.e2e: no src/repro in this checkout, nothing to measure")

    import_ms = (time.perf_counter() - began) * 1000.0
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_ms)
    _print_record(record)
    return _contract(record)


def _run_all(args: argparse.Namespace, names: list[str]) -> dict[str, dict]:
    results = {}
    for name in names:
        command = [
            sys.executable, "-m", "benchmarks.e2e", "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        *report, last = child.stdout.rstrip("\n").split("\n")
        print("\n".join(report), flush=True)
        if child.returncode not in (0, 1):
            raise SystemExit(f"workload {name} exited with code {child.returncode}")
        results[name] = json.loads(last)
    return results


def main(argv: list[str] | None = None) -> int:
    root = pathlib.Path(__file__).resolve().parents[2]
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload in this process (default: all, one child each)")
    parser.add_argument("--seed", type=int, default=0)
    # Mandated by the driver contract, which always passes run_seconds.
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]),
                        help="the driver's run length: the fixed op counts are sized for "
                             "run_seconds and scale in proportion (recorded by --out)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="record the layer trace and print the per-layer metrics")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write the results as JSON (the input of --compare)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two result files (or comma-joined sets); exit 1 if B regressed")
    args = parser.parse_args(argv)

    if args.compare:
        from .compare import compare

        try:
            lines, regressed = compare(benchmark, *args.compare)
        except ValueError as error:
            print(f"benchmarks.e2e --compare: {error}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 1 if regressed else 0

    os.chdir(root)  # daemon sockets and child commands are relative to the checkout
    if args.workload:
        results = {args.workload: _run_one(args)}
        last = results[args.workload]
    else:
        results = _run_all(args, names)
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "workloads": results}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(last), flush=True)
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
