"""Plan / run / merge orchestration for sharded experiment runs.

The lifecycle behind ``repro shard``:

1. :func:`plan` splits an experiment into N manifests — pure JSON, no
   computation.  Each names the same run fingerprint and store.
2. :func:`run_shard` executes one manifest: the experiment runs under a
   :class:`~repro.parallel.ShardBackend` that computes the shard's
   assigned cells (through the inner backend it is given) and
   publishes every result to the run store.  Shards may run in any
   order, concurrently, or on different machines — the store directory
   is the only coupling.
3. :func:`merge_shards` replays the experiment under a
   :class:`~repro.parallel.MergeBackend` that only loads published
   cells, producing a report byte-identical (canonical JSON) to the
   single-host run at any shard count.

The trace memo and stage memoization also write through the run store
(it is installed as the process-wide active store for the duration), so
a merge never re-simulates the case-study traffic or retrains inline
glue the shards already paid for.
"""

from __future__ import annotations

import json
import pathlib
from typing import Sequence

from ..experiments.base import ExperimentReport
from ..experiments.config import Scale
from ..experiments.registry import get_module, supports_backend
from ..parallel import ExecutionBackend, MergeBackend, ShardBackend
from ..store import RunStore, code_fingerprint, fingerprint, set_active_store
from ..telemetry import ProgressWriter, capture_run, span, write_run_log
from .manifest import (
    ShardManifest,
    StaleManifestError,
    config_key,
    load_manifest,
    run_fingerprint,
    validate_manifest,
)

__all__ = ["collect_manifests", "merge_shards", "plan", "run_shard"]


def plan(
    experiment: str,
    num_shards: int,
    seed: int,
    scale: Scale,
    out_dir: str | pathlib.Path | None = None,
    store: str | None = None,
) -> list[pathlib.Path]:
    """Write ``num_shards`` manifests for one experiment run.

    ``out_dir`` defaults to ``runs/shards/<experiment>-seed<seed>-<scale>``.
    ``store`` defaults to a ``store/`` directory next to the manifests,
    recorded relatively so the whole plan directory stays portable.
    Serial-by-design experiments (table1/table7) are rejected here, at
    plan time, with the registry's explanation.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if not supports_backend(experiment):
        raise ValueError(
            f"experiment {experiment!r} runs serially by design "
            "(constants / wall-clock timing); there is no grid to shard"
        )
    out = pathlib.Path(out_dir or f"runs/shards/{experiment}-seed{seed}-{scale.name}")
    out.mkdir(parents=True, exist_ok=True)
    manifest_store = store if store is not None else "store"
    run = run_fingerprint(experiment, seed, scale)
    code = code_fingerprint()
    config = fingerprint(config_key(experiment, seed, scale))
    paths = []
    for index in range(num_shards):
        manifest = ShardManifest(
            experiment=experiment,
            seed=seed,
            scale=scale,
            num_shards=num_shards,
            shard_index=index,
            store=manifest_store,
            run=run,
            code=code,
            config=config,
        )
        path = out / f"shard-{index}of{num_shards}.json"
        path.write_text(json.dumps(manifest.to_dict(), indent=1, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def _open(path: str | pathlib.Path) -> tuple[ShardManifest, pathlib.Path, RunStore]:
    path = pathlib.Path(path)
    manifest = load_manifest(path)
    validate_manifest(manifest, path)
    return manifest, path, RunStore(manifest.store_path(path))


def _execute(
    manifest: ShardManifest, store: RunStore, backend: ExecutionBackend
) -> ExperimentReport:
    """Run the manifest's experiment under ``backend`` with the run
    store installed process-wide (trace/stage memoization)."""
    module = get_module(manifest.experiment)
    previous = set_active_store(store)
    try:
        return module.run(manifest.scale, seed=manifest.seed, backend=backend)
    finally:
        set_active_store(previous)


def run_shard(
    manifest_path: str | pathlib.Path,
    backend: ExecutionBackend | None = None,
    missing: str = "compute",
    wait_timeout_s: float = 3600.0,
) -> ExperimentReport:
    """Execute one shard manifest; returns the shard's local report.

    ``backend`` is the inner backend (``None`` = inline): the shard's
    cells — and a cold trace extraction's windows — fan out over it
    *within* the shard, composing with the cross-shard split.
    ``missing`` is the unowned-cell policy (see
    :class:`~repro.parallel.ShardBackend`): ``"compute"`` self-heals,
    ``"wait"`` polls the store for peer shards running concurrently.
    """
    manifest, path, store = _open(manifest_path)
    tag = f"shard{manifest.shard_index}of{manifest.num_shards}"
    telemetry_dir = store.root / "telemetry"
    heartbeat = ProgressWriter(telemetry_dir / f"progress-{tag}.jsonl")
    shard = ShardBackend(
        store,
        manifest.run,
        manifest.num_shards,
        manifest.shard_index,
        inner=backend,
        missing=missing,
        wait_timeout_s=wait_timeout_s,
        progress=heartbeat.write,
    )
    meta = {
        "experiment": manifest.experiment,
        "seed": manifest.seed,
        "scale": manifest.scale.name,
        "shard": manifest.shard_index,
        "num_shards": manifest.num_shards,
    }
    heartbeat.write(phase="start", experiment=manifest.experiment)
    with capture_run(meta) as capture:
        with span(f"experiment.{manifest.experiment}"):
            report = _execute(manifest, store, shard)
    heartbeat.write(phase="done", experiment=manifest.experiment)
    if capture.delta is not None:
        write_run_log(telemetry_dir / f"{tag}.jsonl", capture)
    return report


def collect_manifests(paths: Sequence[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand directories to the manifest files inside them."""
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            found = sorted(path.glob("shard-*.json"))
            if not found:
                raise StaleManifestError(f"no shard-*.json manifests under {path}")
            out.extend(found)
        else:
            out.append(path)
    return out


def merge_shards(paths: Sequence[str | pathlib.Path]) -> ExperimentReport:
    """Merge a completed shard set into the final report.

    Accepts any one manifest of the plan (they all name the same run and
    store) or several / a plan directory; manifests from different plans
    are rejected.  Missing cells surface as
    :class:`~repro.parallel.MissingCellError` — merge never computes.
    """
    manifest_paths = collect_manifests(paths)
    if not manifest_paths:
        raise ValueError("merge needs at least one manifest (or a plan directory)")
    opened = [_open(p) for p in manifest_paths]
    first, first_path, store = opened[0]
    for other, other_path, _ in opened[1:]:
        if other.run != first.run:
            raise StaleManifestError(
                f"{other_path} belongs to run {other.run[:12]} but {first_path} to "
                f"{first.run[:12]}; merge one plan at a time"
            )
    backend = MergeBackend(store, first.run)
    return _execute(first, store, backend)
