"""Shard orchestration: plan / run / merge equivalence and guard rails.

The acceptance bar of the sharding tentpole: for every parallel
experiment in the registry, ``plan`` + N x ``run`` + ``merge`` produces
report JSON byte-identical to the fork-backend single-host run, for
shard counts {1, 2, 3}.

Runs at a micro scale by default so the tier-1 suite stays fast; the CI
sharded-equivalence job re-runs it with ``REPRO_SHARD_SCALE=quick`` for
the full QUICK-scale guarantee.  All three plans of an experiment share
one store on purpose — cells are addressed by (run, site, cell), never
by shard count, which is exactly why any shard count merges identically.
"""

import dataclasses
import json
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.casestudy import trace as trace_mod
from repro.experiments import QUICK
from repro.experiments.fig9 import case_study_problems
from repro.experiments.registry import get_module, parallel_experiment_ids
from repro.parallel import ForkBackend, MissingCellError
from repro.shard import StaleManifestError, merge_shards, plan, run_shard

MICRO = dataclasses.replace(
    QUICK,
    name="shard-micro",
    num_tasks=5,
    num_devices=3,
    train_graphs=2,
    test_cases=2,
    episodes=2,
    num_networks=2,
    dl_designs=1,
    dl_variants=2,
    dl_group_target=12,
    dl_devices=3,
    dl_episodes=2,
    dl_test_cases=1,
    adapt_devices=6,
    adapt_min_devices=5,
    adapt_changes=2,
    adapt_graphs=2,
    case_vehicles=200,
    case_duration_s=60.0,
    case_cav_fraction=0.3,
    case_train=3,
    case_test=2,
    case_episodes=2,
    convergence_episodes=2,
    convergence_eval_every=1,
    convergence_eval_cases=1,
    pairwise_cases=3,
)


def active_scale():
    """Micro by default; QUICK when the CI equivalence job asks for it."""
    return QUICK if os.environ.get("REPRO_SHARD_SCALE") == "quick" else MICRO


@pytest.mark.parametrize("experiment_id", parallel_experiment_ids())
def test_shard_count_independence(experiment_id, tmp_path):
    """{1, 2, 3} shards all merge byte-identically to the fork run."""
    scale = active_scale()
    baseline = get_module(experiment_id).run(scale, seed=0, backend=ForkBackend(2))
    expected = baseline.to_json()
    store = str(tmp_path / "store")
    for shards in (1, 2, 3):
        out = tmp_path / f"plan-{shards}"
        for manifest in plan(experiment_id, shards, 0, scale, out, store=store):
            run_shard(manifest)
        merged = merge_shards([out])
        assert merged.to_json() == expected, (experiment_id, shards)


def test_concurrent_wait_shards_partition_the_work(tmp_path):
    """Two `missing=wait` shard processes complete against one store.

    The two-terminal mode: each process computes only its owned cells
    and polls the store for the peer's — neither can finish alone, so
    both exiting 0 proves the cross-process exchange works, and the
    merge proves the split changed nothing.
    """
    scale = active_scale()
    expected = get_module("fig15").run(scale, seed=0).to_json()
    out = tmp_path / "plan"
    manifests = plan("fig15", 2, 0, scale, out)
    code = (
        "import sys; from repro.shard import run_shard; "
        "run_shard(sys.argv[1], missing='wait', wait_timeout_s=120)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, str(path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for path in manifests
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=240)
        assert proc.returncode == 0, err.decode()
    assert merge_shards([out]).to_json() == expected


class _RecordingFork(ForkBackend):
    """Fork execution that remembers what fanned out through it."""

    def __init__(self, workers):
        super().__init__(workers)
        self.calls = []

    def fanout(self, fn, payloads, context=None):
        items = list(payloads)
        self.calls.append((fn.__name__, items, context))
        return super().fanout(fn, items, context)


def test_within_shard_backend_reaches_trace_extraction(tmp_path):
    """`repro shard run --workers N` windows the cold trace extraction
    over the shard's inner backend, bit-identically to the serial walk."""
    scale = active_scale()
    trace_mod._MEMO.clear()
    inner = _RecordingFork(2)
    (manifest,) = plan("fig9", 1, 0, scale, tmp_path / "plan")
    run_shard(manifest, backend=inner)
    (windows, context), *rest = [
        (items, context) for name, items, context in inner.calls if name == "_extract_window"
    ]
    assert len(windows) == 2 and not rest
    *_, scenarios, source = case_study_problems(scale, context.stream)
    assert source == "memory"  # what the shard extracted, not a re-walk
    serial = trace_mod.extract_trace(context.config, np.random.default_rng(list(context.stream)))
    assert len(scenarios) == len(serial) > 0
    for got, want in zip(scenarios, serial):
        assert pickle.dumps(got) == pickle.dumps(want)


class TestGuards:
    def test_merge_without_runs_reports_missing_cells(self, tmp_path):
        out = tmp_path / "plan"
        plan("fig15", 2, 0, active_scale(), out)
        with pytest.raises(MissingCellError, match="did every `repro shard run`"):
            merge_shards([out])

    def test_stale_code_fingerprint_fails_cleanly(self, tmp_path):
        # A manifest planned under different repro sources must be
        # rejected before any store access — not silently corrupt the
        # merge with cells from another code version.
        out = tmp_path / "plan"
        manifest = plan("fig15", 1, 0, active_scale(), out)[0]
        payload = json.loads(manifest.read_text())
        payload["fingerprint"]["code"] = "0" * 64
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StaleManifestError, match="code fingerprint"):
            run_shard(manifest)
        with pytest.raises(StaleManifestError, match="code fingerprint"):
            merge_shards([manifest])

    def test_edited_config_fails_cleanly(self, tmp_path):
        # Changing the planned seed/scale without re-planning is the
        # other stale shape: contents no longer match the config print.
        out = tmp_path / "plan"
        manifest = plan("fig15", 1, 0, active_scale(), out)[0]
        payload = json.loads(manifest.read_text())
        payload["seed"] = 999
        manifest.write_text(json.dumps(payload))
        with pytest.raises(StaleManifestError, match="edited inconsistently"):
            run_shard(manifest)

    def test_merge_rejects_mixed_plans(self, tmp_path):
        scale = active_scale()
        a = plan("fig15", 1, 0, scale, tmp_path / "a")[0]
        b = plan("fig15", 1, 1, scale, tmp_path / "b")[0]
        with pytest.raises(StaleManifestError, match="one plan at a time"):
            merge_shards([a, b])

    def test_plan_rejects_serial_experiments(self, tmp_path):
        with pytest.raises(ValueError, match="serially by design"):
            plan("table1", 2, 0, active_scale(), tmp_path)

    def test_plan_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError, match="num_shards"):
            plan("fig15", 0, 0, active_scale(), tmp_path)
