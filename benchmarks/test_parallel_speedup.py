"""Parallel execution engine: wall-clock scaling on experiment sweeps.

Fig. 14's grid — 7 GNN variants x 3 network settings, each cell an
independent train-and-evaluate run — is the repo's canonical
embarrassingly parallel workload; table 6's six-variant training grid
joined it in the PR-4 seed-stream refactor as the widest formerly-serial
experiment.  The speedup benchmarks time each sweep serially and fanned
out over 4 workers and assert >=2x scaling (on machines with at least
4 CPUs; the determinism half runs everywhere and also guards the
fan-out's correctness).  The shard-backend row times the full
plan -> run -> run -> merge lifecycle against the fork run it must
reproduce byte-for-byte and prints the orchestration overhead.
"""

import dataclasses
import time

import pytest

from repro.experiments import QUICK, fig14, table6
from repro.parallel import ForkBackend, InlineBackend, available_workers, make_backend

# Smaller than the quick preset so the timed serial pass stays in
# seconds, but the same 21-cell grid shape as the real figure.
SWEEP_SCALE = dataclasses.replace(
    QUICK,
    name="bench-parallel",
    num_tasks=8,
    num_devices=4,
    train_graphs=3,
    test_cases=3,
    num_networks=2,
    convergence_episodes=6,
    convergence_eval_every=3,
    convergence_eval_cases=2,
)

MICRO_SCALE = dataclasses.replace(
    SWEEP_SCALE,
    name="bench-parallel-micro",
    num_tasks=5,
    num_devices=3,
    train_graphs=2,
    test_cases=2,
    convergence_episodes=2,
    convergence_eval_every=1,
    convergence_eval_cases=1,
)


def timed(workers: int, scale=SWEEP_SCALE):
    began = time.perf_counter()
    report = fig14.run(scale, seed=0, backend=make_backend(workers=workers))
    return time.perf_counter() - began, report


def test_fanout_is_deterministic_and_cheap():
    """Fan-out must change nothing but wall clock, even on one core."""
    serial_seconds, serial = timed(1, MICRO_SCALE)
    fanned_seconds, fanned = timed(2, MICRO_SCALE)
    assert serial.data == fanned.data
    # Process startup + context broadcast overhead stays bounded; on a
    # single-CPU box the fanned run degrades to roughly serial speed.
    assert fanned_seconds < 3.0 * serial_seconds + 2.0
    print(
        f"fig14 micro sweep: serial {serial_seconds:.2f}s, "
        f"2 workers {fanned_seconds:.2f}s ({available_workers()} CPUs)"
    )


@pytest.mark.skipif(
    available_workers() < 4, reason="wall-clock speedup needs >= 4 CPUs"
)
def test_parallel_speedup_fig14_sweep():
    # Note: on SMT machines reporting 4 vCPUs over 2 physical cores the
    # 2x bar is tighter than it looks; the 21-cell sweep is sized to
    # amortize fork/broadcast overhead so the margin holds there too.
    serial_seconds, serial = timed(1)
    fanned_seconds, fanned = timed(4)
    assert serial.data == fanned.data
    speedup = serial_seconds / fanned_seconds
    print(
        f"fig14-sized sweep (21 cells): serial {serial_seconds:.2f}s, "
        f"4 workers {fanned_seconds:.2f}s -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"expected >=2x at 4 workers, got {speedup:.2f}x"


# Formerly-serial experiment grid (PR 4): table 6 trains six GNN-variant
# cells on one dataset and fans both training and eval per case.  Sized
# so the serial pass stays in seconds while each training cell is heavy
# enough to amortize fork/broadcast overhead.
TABLE6_SCALE = dataclasses.replace(
    QUICK,
    name="bench-table6-grid",
    num_tasks=8,
    num_devices=4,
    train_graphs=3,
    test_cases=4,
    episodes=8,
    num_networks=2,
    pairwise_cases=4,
)


@pytest.mark.skipif(
    available_workers() < 4, reason="wall-clock speedup needs >= 4 CPUs"
)
def test_parallel_speedup_table6_grid():
    began = time.perf_counter()
    serial = table6.run(TABLE6_SCALE, seed=0, backend=InlineBackend())
    serial_seconds = time.perf_counter() - began
    began = time.perf_counter()
    fanned = table6.run(TABLE6_SCALE, seed=0, backend=ForkBackend(4))
    fanned_seconds = time.perf_counter() - began
    assert serial.data == fanned.data
    speedup = serial_seconds / fanned_seconds
    print(
        f"table6 grid (6 training cells): serial {serial_seconds:.2f}s, "
        f"4 workers {fanned_seconds:.2f}s -> {speedup:.2f}x"
    )
    assert speedup >= 2.0, f"expected >=2x at 4 workers, got {speedup:.2f}x"


def test_shard_roundtrip_matches_fork(tmp_path):
    """PR-5 shard backend: the full two-shard lifecycle on one host.

    Sequential local shards cannot beat the fork run (shard 0 computes
    every cell it needs; shard 1 and the merge are store loads) — this
    test prints the *overhead* of store-mediated execution plus the
    byte-identity the sharding contract promises.  True speedup comes
    from concurrent shards on separate machines/terminals, which CI's
    sharded-equivalence job and tests/shard exercise.
    """
    from repro.shard import merge_shards, plan, run_shard

    began = time.perf_counter()
    fork = fig14.run(MICRO_SCALE, seed=0, backend=ForkBackend(2))
    fork_seconds = time.perf_counter() - began

    began = time.perf_counter()
    for manifest in plan("fig14", 2, 0, MICRO_SCALE, tmp_path):
        run_shard(manifest)
    merged = merge_shards([tmp_path])
    shard_seconds = time.perf_counter() - began

    assert merged.to_json() == fork.to_json()
    overhead = shard_seconds / fork_seconds
    print(
        f"fig14 micro sweep: fork(2) {fork_seconds:.2f}s, "
        f"plan+2 runs+merge {shard_seconds:.2f}s ({overhead:.2f}x)"
    )
