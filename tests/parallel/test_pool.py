"""Direct-execution fan-out (inline and fork backends): ordering,
context broadcast, determinism; the private-copy contract on every
computing backend."""

import numpy as np
import pytest

from repro.parallel import (
    ForkBackend,
    InlineBackend,
    ShardBackend,
    get_context,
    resolve_workers,
    task_rng,
)
from repro.store import RunStore


def _square(x: int) -> int:
    return x * x


def _scaled(x: int) -> int:
    return x * get_context()["factor"]


def _draw(key: tuple) -> float:
    return float(task_rng(*key).random())


def _mutate_context(_: int) -> int:
    ctx = get_context()
    ctx["items"].append(1)
    return len(ctx["items"])


def _boom(x: int) -> int:
    raise RuntimeError(f"task {x} failed")


def _nested(x: int) -> list:
    # A task may itself fan out inline; the outer context must be
    # restored afterwards.
    scaled = InlineBackend().fanout(_scaled, [x], {"factor": 10})
    return [scaled[0], _scaled(x)]


def _backend(workers: int):
    return InlineBackend() if workers == 1 else ForkBackend(workers)


class TestDirectFanout:
    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            ForkBackend(-1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_task_order(self, workers):
        assert _backend(workers).fanout(_square, range(8)) == [x * x for x in range(8)]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_context_broadcast(self, workers):
        assert _backend(workers).fanout(_scaled, [1, 2, 3], {"factor": 7}) == [7, 14, 21]

    @pytest.mark.parametrize("name", ["inline", "fork", "shard"])
    def test_inline_context_is_a_private_copy(self, name, tmp_path):
        # The one contract of the seam: on every backend a task's
        # mutations land on a pickled copy, never on the caller's object.
        backend = {
            "inline": InlineBackend,
            "fork": lambda: ForkBackend(2),
            "shard": lambda: ShardBackend(RunStore(tmp_path), "private-copy", 1, 0),
        }[name]()
        original = {"items": []}
        counts = backend.fanout(_mutate_context, range(3), original)
        if name == "inline":
            assert counts == [1, 2, 3]  # one copy per fan-out, seen by each task...
        assert original["items"] == []  # ...but the original is untouched

    def test_nested_inline_fanouts_restore_context(self):
        # Inner fan-out saw factor=10, outer context (factor=2) was restored.
        assert InlineBackend().fanout(_nested, [5], {"factor": 2}) == [[50, 10]]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_errors_propagate(self, workers):
        with pytest.raises(RuntimeError, match="failed"):
            _backend(workers).fanout(_boom, [0, 1])

    def test_worker_count_independence(self):
        keys = [(11, i) for i in range(6)]
        assert InlineBackend().fanout(_draw, keys) == ForkBackend(3).fanout(_draw, keys)


class TestTaskRng:
    def test_same_key_same_stream(self):
        a, b = task_rng(3, 1, 4), task_rng(3, 1, 4)
        assert np.array_equal(a.random(5), b.random(5))

    def test_distinct_keys_distinct_streams(self):
        assert task_rng(0, 1).random() != task_rng(0, 2).random()
        assert task_rng(0, 1).random() != task_rng(1, 1).random()


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3

    def test_zero_and_none_mean_all_cpus(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)
