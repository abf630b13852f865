"""Telemetry must be observational only.

The hard constraint of the telemetry fabric: report bytes are identical
with telemetry on and off, and the merged span aggregates are identical
at any worker or shard count (timings aside).  Runs at a micro scale so
tier-1 stays fast.
"""

import dataclasses
import json

import pytest

from repro.experiments import QUICK, fig4
from repro.parallel import ForkBackend, InlineBackend
from repro.shard import plan, run_shard
from repro.telemetry import collector, read_records, reset, set_enabled
from repro.telemetry.spans import _env_enabled

MICRO = dataclasses.replace(
    QUICK,
    name="telemetry-micro",
    num_tasks=5,
    num_devices=3,
    train_graphs=2,
    test_cases=2,
    episodes=2,
    num_networks=2,
    pairwise_cases=2,
)

SEED = 3


def span_calls():
    return {path: stat.calls for path, stat in collector().stats.items()}


class TestEnvSwitch:
    def test_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert _env_enabled()

    @pytest.mark.parametrize("value", ["off", "0", "false", "no", " OFF "])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert not _env_enabled()

    def test_other_values_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        assert _env_enabled()


class TestReportBytes:
    @pytest.fixture(scope="class")
    def reports(self):
        set_enabled(True)
        reset()
        with_telemetry = fig4.run(MICRO, seed=SEED, backend=InlineBackend())
        counts = span_calls()
        set_enabled(False)
        reset()
        without = fig4.run(MICRO, seed=SEED, backend=InlineBackend())
        set_enabled(True)
        return with_telemetry, without, counts

    def test_to_json_byte_identical_on_off(self, reports):
        with_telemetry, without, _ = reports
        assert with_telemetry.to_json() == without.to_json()

    def test_stable_data_identical_on_off(self, reports):
        with_telemetry, without, _ = reports
        assert json.dumps(with_telemetry.stable_data(), sort_keys=True) == json.dumps(
            without.stable_data(), sort_keys=True
        )

    def test_disabled_run_recorded_nothing(self, reports):
        *_, counts = reports
        assert counts  # the enabled run did record spans
        set_enabled(False)
        reset()
        fig4.run(MICRO, seed=SEED, backend=InlineBackend())
        assert span_calls() == {}


class TestWorkerMergeEquality:
    def test_span_calls_equal_workers_1_and_4(self):
        set_enabled(True)
        reset()
        fig4.run(MICRO, seed=SEED, backend=InlineBackend())
        serial = span_calls()
        reset()
        fig4.run(MICRO, seed=SEED, backend=ForkBackend(4))
        fanned = span_calls()
        assert serial == fanned
        assert any(p.endswith("train.cell") for p in serial)
        assert any(p.endswith("eval.case") for p in serial)


class TestShardMergeEquality:
    """Summed compute-cell span calls across a shard set's run logs are
    shard-count independent: the cells compute exactly once per plan no
    matter how they are distributed.  Structural spans (the experiment
    root, grid/sweep wrappers) occur once per *shard run* by design and
    are excluded from the equality."""

    def shard_span_totals(self, tmp_path, num_shards):
        out = tmp_path / f"plan{num_shards}"
        manifests = plan("fig4", num_shards, SEED, MICRO, out)
        for manifest in manifests:
            reset()
            run_shard(manifest, backend=InlineBackend())
        logs = sorted((out / "store" / "telemetry").glob("shard*.jsonl"))
        assert len(logs) == num_shards
        totals: dict[str, int] = {}
        for record in read_records(logs):
            if record.get("kind") != "span":
                continue
            path = record["path"]
            if "train.cell" not in path and "eval.case" not in path:
                continue
            totals[path] = totals.get(path, 0) + record["calls"]
        return totals

    def test_totals_equal_shards_1_and_3(self, tmp_path):
        set_enabled(True)
        one = self.shard_span_totals(tmp_path, 1)
        three = self.shard_span_totals(tmp_path, 3)
        assert one == three
        assert any(p.endswith("train.cell") for p in one)

    def test_progress_heartbeats_written(self, tmp_path):
        set_enabled(True)
        out = tmp_path / "plan"
        (manifest,) = plan("fig4", 1, SEED, MICRO, out)
        reset()
        run_shard(manifest, backend=InlineBackend())
        progress = read_records(
            sorted((out / "store" / "telemetry").glob("progress-*.jsonl"))
        )
        phases = [r["phase"] for r in progress if r.get("kind") == "progress"]
        assert phases[0] == "start"
        assert phases[-1] == "done"
        assert "fanout-done" in phases
