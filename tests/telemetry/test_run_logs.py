"""Leveled logger routing and the run-log write/read/render pipeline."""

import json

import pytest

from repro.telemetry import (
    ProgressWriter,
    capture_run,
    collect_run_files,
    export_chrome,
    log,
    metrics,
    read_records,
    render_top,
    render_tree,
    set_enabled,
    span,
    write_run_log,
)


@pytest.fixture(autouse=True)
def default_level(monkeypatch):
    monkeypatch.delenv("REPRO_LOG", raising=False)
    previous = log.set_level(None)
    yield
    log.set_level(previous)


class TestLogger:
    def test_info_goes_to_stderr_only(self, capsys):
        log.info("hello")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "[repro] hello\n"

    def test_env_level_debug_shows_info(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        log.info("verbose")
        assert "[repro] verbose" in capsys.readouterr().err

    def test_env_level_warn_hides_info(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "warn")
        log.info("hidden")
        log.warn("shown")
        assert capsys.readouterr().err == "[repro] shown\n"

    def test_unknown_env_level_falls_back_to_info(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "chatty")
        log.info("shown")
        assert capsys.readouterr().err == "[repro] shown\n"

    def test_env_level_quiet_silences_warn(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "quiet")
        log.warn("problem")
        assert capsys.readouterr().err == ""

    def test_set_level_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "debug")
        log.set_level("quiet")
        log.info("hidden")
        assert capsys.readouterr().err == ""


def _capture_one_run(meta):
    with capture_run(meta) as capture:
        with span("experiment.t"):
            with span("stage"):
                pass
    return capture


class TestRunLog:
    def test_capture_disabled_has_no_delta(self):
        set_enabled(False)
        with capture_run({"experiment": "t"}) as capture:
            pass
        assert capture.delta is None
        assert capture.duration_s >= 0.0

    def test_write_read_roundtrip(self, tmp_path):
        set_enabled(True)
        name = "test.runlog.counter"
        with capture_run({"experiment": "t", "seed": 3}) as capture:
            with span("experiment.t"):
                metrics().counter(name).inc(2)
        path = write_run_log(tmp_path / "run.jsonl", capture)
        records = read_records([path])
        kinds = {r["kind"] for r in records}
        assert "run" in kinds and "span" in kinds
        (run,) = [r for r in records if r["kind"] == "run"]
        assert run["meta.experiment"] == "t"
        assert run["meta.seed"] == 3
        assert run["duration_s"] == capture.duration_s
        spans = {r["path"]: r for r in records if r["kind"] == "span"}
        assert spans["experiment.t"]["calls"] == 1
        counters = {
            r["name"]: r["value"]
            for r in records
            if r["kind"] == "metric" and r["type"] == "counter"
        }
        assert counters[name] == 2

    def test_read_records_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"kind": "run", "duration_s": 1.0}\nnot json\n\n')
        assert len(read_records([path])) == 1

    def test_read_records_ignores_missing_files(self, tmp_path):
        assert read_records([tmp_path / "absent.jsonl"]) == []


class TestCollectRunFiles:
    def test_file_is_itself(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("{}\n")
        assert collect_run_files(path) == [path]

    def test_missing_target_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_run_files(tmp_path / "nope")

    def test_dir_prefers_telemetry_subdir(self, tmp_path):
        sub = tmp_path / "telemetry"
        sub.mkdir()
        (sub / "shard0of2.jsonl").write_text("{}\n")
        (sub / "shard1of2.jsonl").write_text("{}\n")
        (tmp_path / "stray.jsonl").write_text("{}\n")
        found = collect_run_files(tmp_path)
        assert [p.name for p in found] == ["shard0of2.jsonl", "shard1of2.jsonl"]

    def test_plain_dir_yields_newest_log(self, tmp_path):
        import os

        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        old.write_text("{}\n")
        new.write_text("{}\n")
        os.utime(old, (1, 1))
        os.utime(new, (2, 2))
        assert collect_run_files(tmp_path) == [new]

    def test_shard_logs_merge(self, tmp_path):
        (tmp_path / "shard-0.jsonl").write_text("{}\n")
        (tmp_path / "shard-1.jsonl").write_text("{}\n")
        assert len(collect_run_files(tmp_path)) == 2

    def test_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            collect_run_files(tmp_path)


class TestRendering:
    def _records(self):
        return [
            {"kind": "run", "duration_s": 2.0, "meta.experiment": "fig4"},
            {"kind": "span", "path": "experiment.fig4", "calls": 1, "seconds": 1.8},
            {"kind": "span", "path": "experiment.fig4/train", "calls": 4, "seconds": 1.5},
            {"kind": "span", "path": "experiment.fig4/eval", "calls": 2, "seconds": 0.2},
        ]

    def test_tree_structure_and_coverage(self):
        out = render_tree(self._records())
        assert "run: experiment=fig4" in out
        assert "coverage: 90.0% of 2.00s" in out
        lines = out.splitlines()
        root_idx = next(i for i, l in enumerate(lines) if l.startswith("experiment.fig4"))
        # Children indented under the root, heaviest first.
        assert lines[root_idx + 1].startswith("  train")
        assert lines[root_idx + 2].startswith("  eval")

    def test_tree_merges_spans_across_records(self):
        records = self._records() + [
            {"kind": "span", "path": "experiment.fig4", "calls": 1, "seconds": 0.1}
        ]
        assert " 2 " in render_tree(records).splitlines()[-3]

    def test_tree_without_spans_says_so(self):
        out = render_tree([{"kind": "run", "duration_s": 1.0}])
        assert "no spans recorded" in out

    def test_tree_reports_dropped_events(self):
        out = render_tree(self._records() + [{"kind": "events_dropped", "count": 7}])
        assert "dropped past cap: 7" in out

    def test_top_orders_by_self_time(self):
        out = render_top(self._records(), top=2)
        lines = [l for l in out.splitlines()[2:] if l.strip()]
        assert lines[0].startswith("experiment.fig4/train")
        assert len(lines) == 2

    def test_chrome_export_shape(self):
        records = self._records() + [
            {
                "kind": "event",
                "path": "experiment.fig4/train",
                "start_s": 0.5,
                "duration_s": 0.25,
                "pid": 42,
            }
        ]
        trace = export_chrome(records)
        assert trace["displayTimeUnit"] == "ms"
        (event,) = trace["traceEvents"]
        assert event["name"] == "train"
        assert event["cat"] == "experiment.fig4"
        assert event["ph"] == "X"
        assert event["ts"] == 0.5e6
        assert event["dur"] == 0.25e6
        assert event["pid"] == 42
        assert event["args"]["path"] == "experiment.fig4/train"


class TestProgressWriter:
    def test_appends_progress_records(self, tmp_path):
        writer = ProgressWriter(tmp_path / "deep" / "progress.jsonl")
        writer.write(phase="start", shard=0)
        writer.write(phase="await-cells", remaining=3, owners=[1, 2])
        lines = (tmp_path / "deep" / "progress.jsonl").read_text().splitlines()
        records = [json.loads(l) for l in lines]
        assert [r["phase"] for r in records] == ["start", "await-cells"]
        assert all(r["kind"] == "progress" for r in records)
        assert all("wall_time" in r for r in records)
        assert records[1]["owners"] == [1, 2]

    def test_oserror_swallowed(self, tmp_path):
        blocked = tmp_path / "file"
        blocked.write_text("")
        writer = ProgressWriter(blocked / "progress.jsonl")  # parent is a file
        writer.write(phase="start")  # must not raise
