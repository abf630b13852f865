"""Smoke test of the end-to-end benchmark (tier-1, a few seconds).

Runs every workload for three ops at a tiny size, in this process, and
pins the pieces the numbers rest on: the calibration kernel's
independence from ``repro``, the percentile / self-time helpers, the
output checks, seed determinism, ``--compare`` and the agreement
between ``BENCHMARK.json`` and what the command prints.
"""

import ast
import json
import pathlib

import pytest

from benchmarks.e2e import calibrate, compare, runner, trace, workloads
from benchmarks.e2e.__main__ import main
from benchmarks.e2e.daemon import InProcessDaemon

HERE = pathlib.Path(__file__).resolve().parent

# Class-attribute overrides that shrink each workload to a few ms per op.
TINY = {
    "train_episode": dict(setup_problems=1, num_tasks=8, num_devices=4, episode_length=4),
    "search_large": dict(setup_problems=1, num_tasks=10, num_devices=4, steps=3),
    "eval_grid": dict(setup_problems=1, num_tasks=6, num_devices=3),
    "serve_event": dict(tenants_per_connection=1, rounds=4),  # 12 events: one reopen
    "serve_evaluate": dict(batch=8, rounds=2, pool_seeds=1),
}


def tiny(name: str) -> type[workloads.Workload]:
    cls = workloads.WORKLOADS[name]
    return type(f"Tiny{cls.__name__}", (cls,), TINY[name])


def run_tiny(name: str, seed: int, tmp_path, traced: bool = False) -> runner.Segment:
    socket_path = str(tmp_path / f"{name}-{seed}-{int(traced)}.sock")
    return runner.run_segment(
        tiny(name), seed, setups=1, warmup=0, timed=3, traced=traced,
        make_daemon=lambda _traced: InProcessDaemon(socket_path),
    )


def test_calibration_kernel_is_independent_and_deterministic():
    tree = ast.parse((HERE / "calibrate.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "calibrate.py must not import from the benchmark package"
            imported.add(node.module)
    assert not [name for name in imported if name.split(".")[0] == "repro"]
    assert calibrate.calibration_kernel() == calibrate.calibration_kernel()

    calibrator = calibrate.Calibrator()
    result, raw_ms, cal_ms = calibrator.timed(lambda: sum(range(20000)))
    assert result == sum(range(20000))
    assert raw_ms > 0 and cal_ms > 0
    assert len(calibrator.kernel_ms) == 2  # one probe before, one after


def test_percentile_and_iqr_helpers():
    values = list(range(1, 101))
    assert calibrate.percentile(values, 50) == 50
    assert calibrate.percentile(values, 90) == 90
    assert calibrate.percentile([7.0], 90) == 7.0
    assert calibrate.percentile([3, 1, 2], 100) == 3
    assert calibrate.iqr_share([10.0] * 8) == 0.0
    assert calibrate.iqr_share([1.0]) == 0.0
    assert calibrate.iqr_share([8, 9, 10, 11, 12]) == pytest.approx(0.3)


def test_self_time_and_layer_metrics_on_hand_made_spans():
    def span(name, start, end, parent, thread=1, extra=None):
        return {"name": name, "start": start, "end": end, "parent": parent,
                "thread": thread, "extra": extra}

    spans = [
        span("core.env/step", 0.010, 0.030, None, extra=1),  # 20 ms, children 12 ms
        span("core.features/update", 0.012, 0.020, 0),  # 8 ms, child 2 ms
        span("runtime.evaluator/evaluate", 0.014, 0.016, 1, extra=[1, 2]),
        span("runtime.evaluator/evaluate", 0.022, 0.026, 0, extra=[0, 1]),
        span("core.gnn/forward", 0.040, 0.050, None),  # second op
        span("core.gnn/forward", 0.900, 0.950, None),  # outside every op: ignored
    ]
    own = trace.self_times(spans)
    assert own == pytest.approx([8.0, 6.0, 2.0, 4.0, 10.0, 50.0])

    ops = [(0.0, 0.035, 1.0), (0.036, 0.060, 0.5)]  # second op ran on a 2x slow machine
    metrics = trace.layer_metrics(spans, ops)
    assert metrics["core.env.self_ms_per_op"] == pytest.approx(4.0)
    assert metrics["core.features.self_ms_per_op"] == pytest.approx(3.0)
    assert metrics["runtime.evaluator.self_ms_per_op"] == pytest.approx(3.0)
    assert metrics["core.gnn.self_ms_per_op"] == pytest.approx(2.5)  # 10 ms * 0.5 / 2 ops
    assert metrics["core.gnn.forward_calls"] == 1
    assert metrics["core.features.update_calls"] == 1
    assert metrics["runtime.evaluator.lookups"] == 3
    assert metrics["runtime.evaluator.hit_rate"] == pytest.approx(1 / 3)
    assert metrics["core.env.improving_step_share"] == 1.0
    # 59 ms of ops, root spans cover 20 + 10 ms.
    assert metrics["harness.unattributed_share"] == pytest.approx(1 - 30 / 59)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_checks_and_is_seeded(name, tmp_path):
    first = run_tiny(name, 0, tmp_path)
    assert first.attempted == 3 and first.failed == 0, first.errors
    assert len(first.op_cal_ms) == 3 and first.work > 0
    assert len(first.setup_cal_s) == 1 and first.setup_cal_s[0] > 0
    metrics = runner.end_to_end_metrics(first)
    assert all(value > 0 for value in metrics.values()), metrics

    (tmp_path / "again").mkdir()
    again = run_tiny(name, 0, tmp_path / "again")
    other = run_tiny(name, 1, tmp_path)
    assert again.slr == first.slr  # same seed: bit-identical placements
    assert again.work == first.work
    assert other.slr != first.slr  # another seed: other inputs


def test_failed_check_marks_the_op_failed(tmp_path, monkeypatch):
    def broken_simulate(*args, **kwargs):
        raise workloads.CheckFailed("planted")

    monkeypatch.setattr(workloads, "simulate", broken_simulate)
    segment = run_tiny("search_large", 0, tmp_path)
    assert segment.attempted == 3 and segment.failed == 3
    assert "planted" in segment.errors[0]


def test_benchmark_json_names_what_the_command_prints(tmp_path):
    benchmark = runner.BENCHMARK
    assert [w["name"] for w in benchmark["workloads"]] == list(workloads.WORKLOADS)
    assert benchmark["paths"] == ["benchmarks/e2e"]
    # The same-seed gate covers every end-to-end metric and is never the looser one.
    assert {m["name"]: m["bound"] >= compare.SAME_SEED_BOUNDS[m["name"]]
            for m in benchmark["end_to_end"]} == dict.fromkeys(compare.SAME_SEED_BOUNDS, True)

    # One in-process workload and one serve workload cover every metric source.
    for name in ("train_episode", "serve_evaluate"):
        plain = run_tiny(name, 0, tmp_path)
        traced = run_tiny(name, 0, tmp_path, traced=True)
        assert traced.failed == 0, traced.errors
        assert list(runner.end_to_end_metrics(plain)) == [
            m["name"] for m in benchmark["end_to_end"]
        ]
        layers = runner.per_layer_metrics(plain, traced, import_ms=1.0)
        assert sorted(layers) == sorted(m["name"] for m in benchmark["per_layer"])
        if name == "train_episode":
            assert layers["nn.autograd.backward_calls"] == 3
            assert layers["nn.optim.step_calls"] == 3
            assert layers["core.gnn.forward_calls"] == 3 * 4
            assert layers["serve.protocol.encode_calls"] == 0
        else:
            assert layers["core.gnn.forward_calls"] == 0
            assert layers["serve.protocol.decode_calls"] == 3 * 2 * 2
            assert layers["runtime.evaluator.lookups"] == 3 * 2 * 2 * 8
    # The wrappers are gone again: nothing under src/ stays patched.
    from repro.core.features import GpNetBuilder

    assert not hasattr(GpNetBuilder.build, "__wrapped__")


def _result_file(path, scale=1.0, correct=True, seed=0, seconds=12.0, trace=0,
                 drop=None, slr=2.5):
    metrics = {
        "setup_s": 0.05, "op_cal_ms_p50": 40.0, "op_cal_ms_p90": 50.0,
        "work_per_cal_s": 120.0, "peak_rss_mb": 60.0, "placement_slr_mean": slr,
    }
    metrics["op_cal_ms_p50"] *= scale
    metrics.pop(drop, None)
    record = {
        "correct": correct, "attempted": 160, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()},
    }
    path.write_text(json.dumps({"seed": seed, "seconds": seconds, "trace": trace,
                                "workloads": {"search_large": record}}))
    return str(path)


def test_compare_flags_a_planted_regression(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json")
    same = _result_file(tmp_path / "b.json")
    slow = _result_file(tmp_path / "c.json", scale=1.2)
    fast = _result_file(tmp_path / "d.json", scale=0.8)
    wrong = _result_file(tmp_path / "e.json", correct=False)

    assert main(["--compare", base, same]) == 0
    assert "REGRESSED" not in capsys.readouterr().out
    assert main(["--compare", base, slow]) == 1
    out = capsys.readouterr().out
    assert "op_cal_ms_p50" in out and "REGRESSED" in out and "+20.00%" in out
    assert main(["--compare", base, fast]) == 0
    assert main(["--compare", base, wrong]) == 1
    # Sets of runs are compared by their medians: one slow run of three passes.
    assert main(["--compare", base, f"{same},{slow},{same}"]) == 0
    lines, regressed = compare.compare(runner.BENCHMARK, base, f"{slow},{slow},{same}")
    assert regressed and len(lines) == 2 + len(runner.BENCHMARK["end_to_end"])


def test_compare_same_seed_gate_and_refusals(tmp_path, capsys):
    base = _result_file(tmp_path / "a.json")
    # A metric missing from either side cannot hold its bound.
    for spec in [(base, _result_file(tmp_path / "m.json", drop="op_cal_ms_p90")),
                 (_result_file(tmp_path / "n.json", drop="setup_s"), base)]:
        assert main(["--compare", *spec]) == 1
        assert "missing from" in capsys.readouterr().out
    # Same seed: the SLR must repeat; 7% slower is beyond the same-seed 6%.
    assert main(["--compare", base, _result_file(tmp_path / "s.json", slr=2.51)]) == 1
    assert main(["--compare", base, _result_file(tmp_path / "t.json", scale=1.07)]) == 1
    assert "same seed (0)" in capsys.readouterr().out
    # Other seeds ran other inputs: BENCHMARK.json's cross-seed bounds apply, and say so.
    assert main(["--compare", base, _result_file(tmp_path / "u.json", seed=1, slr=2.51)]) == 0
    assert main(["--compare", base, _result_file(tmp_path / "v.json", seed=1, scale=1.07)]) == 0
    assert "seeds differ" in capsys.readouterr().out
    # Other op counts, or a traced run, are not comparable at all.
    assert main(["--compare", base, _result_file(tmp_path / "w.json", seconds=6.0)]) == 2
    assert main(["--compare", base, _result_file(tmp_path / "x.json", trace=1)]) == 2
    assert "--seconds" in capsys.readouterr().err
