"""ExecutionBackend family: contract equivalence, shard/merge mechanics,
and batched REINFORCE rounds on the seam."""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.parallel import (
    ExecutionBackend,
    ExecutionBackendError,
    ForkBackend,
    InlineBackend,
    MergeBackend,
    MissingCellError,
    ShardBackend,
    make_backend,
    task_rng,
)
from repro.core import GiPHAgent, PlacementProblem, ReinforceTrainer
from repro.parallel.pool import get_context
from repro.devices import DeviceNetworkParams, generate_device_network
from repro.graphs import TaskGraphParams, generate_task_graph
from repro.sim import MakespanObjective
from repro.store import RunStore
from repro.telemetry import metrics


def _draw(key: tuple) -> float:
    """Task-identity randomness: the determinism contract's shape."""
    return float(task_rng(*key).random())


def _scaled(x: int) -> int:
    return x * get_context()["factor"]


RUN = "test-run-fingerprint"


def _one_problem():
    rng = np.random.default_rng(5)
    graph = generate_task_graph(TaskGraphParams(num_tasks=5), rng)
    return [PlacementProblem(graph, generate_device_network(DeviceNetworkParams(num_devices=3), rng))]


class TestMakeBackend:
    def test_defaults_match_the_workers_flag(self):
        assert isinstance(make_backend(), InlineBackend)
        assert isinstance(make_backend(None, 1), InlineBackend)
        fork = make_backend(None, 3)
        assert isinstance(fork, ForkBackend) and fork.workers == 3

    def test_explicit_name_wins(self):
        assert isinstance(make_backend("inline", 8), InlineBackend)
        fork = make_backend("fork", 1)
        assert isinstance(fork, ForkBackend) and fork.workers == 1
        assert make_backend("fork").workers == make_backend(None, 0).workers

    @pytest.mark.parametrize("name", ["shard", "thread"])
    def test_rejects_unknown_names(self, name):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend(name, 1)


class TestDirectBackends:
    @pytest.mark.parametrize("backend", [InlineBackend(), ForkBackend(2)])
    def test_ordered_context_fanout(self, backend):
        out = backend.fanout(_scaled, [1, 2, 3], {"factor": 7})
        assert out == [7, 14, 21]

    def test_inline_equals_fork(self):
        keys = [(3, i) for i in range(5)]
        assert InlineBackend().fanout(_draw, keys) == ForkBackend(3).fanout(_draw, keys)

    def test_compute_without_store_just_produces(self):
        assert InlineBackend().compute("stage", {"k": 1}, lambda: 42) == 42


class TestShardBackend:
    def test_rejects_bad_geometry(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError):
            ShardBackend(store, RUN, 0, 0)
        with pytest.raises(ValueError):
            ShardBackend(store, RUN, 2, 2)
        with pytest.raises(ValueError, match="missing policy"):
            ShardBackend(store, RUN, 2, 0, missing="hope")

    def test_matches_inline_and_publishes_every_cell(self, tmp_path):
        store = RunStore(tmp_path)
        keys = [(9, i) for i in range(6)]
        expected = InlineBackend().fanout(_draw, keys)
        shard = ShardBackend(store, RUN, 3, 1)
        assert shard.fanout(_draw, keys) == expected
        # missing="compute" self-heals: every cell is now published.
        merged = MergeBackend(store, RUN).fanout(_draw, keys)
        assert merged == expected

    def test_sequential_shards_split_via_the_store(self, tmp_path):
        store = RunStore(tmp_path)
        keys = [(1, i) for i in range(5)]
        first = ShardBackend(store, RUN, 2, 0).fanout(_draw, keys)
        writes = metrics().counter("store.writes")
        before = writes.value
        second = ShardBackend(store, RUN, 2, 1).fanout(_draw, keys)
        assert first == second == InlineBackend().fanout(_draw, keys)
        # The second shard loaded everything the first one published.
        assert writes.value == before

    def test_wait_mode_times_out_with_a_clean_error(self, tmp_path):
        store = RunStore(tmp_path)
        shard = ShardBackend(
            store, RUN, 2, 0, missing="wait", wait_timeout_s=0.3
        )
        with pytest.raises(ExecutionBackendError, match="timed out.*peer cell"):
            shard.fanout(_draw, [(0, i) for i in range(4)])
        # Its own cells were still computed and published before waiting.
        peer = ShardBackend(store, RUN, 2, 1, missing="compute")
        assert peer.fanout(_draw, [(0, i) for i in range(4)]) == InlineBackend().fanout(
            _draw, [(0, i) for i in range(4)]
        )

    def test_distinct_fanout_sites_do_not_collide(self, tmp_path):
        store = RunStore(tmp_path)
        shard = ShardBackend(store, RUN, 1, 0)
        a = shard.fanout(_draw, [(5, 0)])
        b = shard.fanout(_draw, [(6, 0)])  # same site, second visit
        merged = MergeBackend(store, RUN)
        assert merged.fanout(_draw, [(5, 0)]) == a
        assert merged.fanout(_draw, [(6, 0)]) == b
        assert a != b

    def test_runs_are_isolated_by_fingerprint(self, tmp_path):
        store = RunStore(tmp_path)
        ShardBackend(store, "run-a", 1, 0).fanout(_draw, [(7, 0)])
        with pytest.raises(MissingCellError):
            MergeBackend(store, "run-b").fanout(_draw, [(7, 0)])

    def test_compute_memoizes_in_the_shard_store(self, tmp_path):
        store = RunStore(tmp_path)
        calls = []
        producer = lambda: calls.append(1) or "stage-value"
        assert ShardBackend(store, RUN, 2, 0).compute("stage", {"s": 1}, producer) == (
            "stage-value"
        )
        assert MergeBackend(store, RUN).compute("stage", {"s": 1}, producer) == (
            "stage-value"
        )
        assert len(calls) == 1

    def test_wait_mode_non_owners_never_compute_stages(self, tmp_path):
        # Strict partitioning covers stages too: shard 0 owns them, the
        # rest wait — a second terminal must not duplicate the training.
        store = RunStore(tmp_path)
        shard1 = ShardBackend(
            store, RUN, 2, 1, missing="wait", wait_timeout_s=0.3
        )
        with pytest.raises(ExecutionBackendError, match="shard 0 to publish"):
            shard1.compute("stage", {"s": 2}, lambda: pytest.fail("non-owner computed"))
        ShardBackend(store, RUN, 2, 0, missing="wait").compute(
            "stage", {"s": 2}, lambda: "from-shard-0"
        )
        assert shard1.compute("stage", {"s": 2}, lambda: pytest.fail("recompute")) == (
            "from-shard-0"
        )


class TestMergeBackend:
    def test_never_computes(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(MissingCellError, match="did every `repro shard run`"):
            MergeBackend(store, RUN).fanout(_draw, [(0, 0)])

    def test_never_computes_stages_either(self, tmp_path):
        # "Merge is cheap assembly" must hold for memoized stages too:
        # a premature merge fails fast instead of silently retraining.
        store = RunStore(tmp_path)
        with pytest.raises(MissingCellError, match="missing stage"):
            MergeBackend(store, RUN).compute(
                "stage", {"s": 9}, lambda: pytest.fail("merge computed a stage")
            )


class TestBatchedRounds:
    """A batched REINFORCE round is one ``backend.fanout``: each slot's
    payload is plain ints, and the weights ride the context, pickled
    once per round as a lean trainer replica."""

    def test_round_ships_ints_and_a_replica_at_its_weights(self):
        trainer = ReinforceTrainer(GiPHAgent(np.random.default_rng(0)), MakespanObjective())
        rounds = []

        class Recording(InlineBackend):
            def fanout(self, fn, payloads, context=None):
                items = list(payloads)
                live = [p.data.copy() for p in trainer.optimizer.params]
                rounds.append((items, pickle.loads(pickle.dumps(context)), live))
                return super().fanout(fn, items, context)

        trainer.train(
            _one_problem(), np.random.default_rng(1), episodes=4, batch_size=2, backend=Recording()
        )
        assert len(rounds) == 2
        for payloads, (replica, problems), live in rounds:
            assert len(payloads) == len(problems) == 2
            assert all(type(v) is int for p in payloads for v in dataclasses.astuple(p))
            assert replica.history == [] and replica.optimizer._t == 0  # no history, no moments
            assert not replica._handles and replica.config == trainer.config
            assert all(np.array_equal(p.data, w) for p, w in zip(replica.optimizer.params, live))
        # Round two runs at the weights round one's step produced.
        assert any(not np.array_equal(a, b) for a, b in zip(rounds[0][2], rounds[1][2]))


def test_every_backend_is_an_execution_backend(tmp_path):
    store = RunStore(tmp_path)
    for backend in (
        InlineBackend(),
        ForkBackend(2),
        ShardBackend(store, RUN, 2, 0),
        MergeBackend(store, RUN),
    ):
        assert isinstance(backend, ExecutionBackend)
