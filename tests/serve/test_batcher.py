"""RequestBatcher: coalescing, value fidelity, and error propagation."""

import contextlib
import sys
import threading
import time

import pytest

from repro.core.placement import PlacementProblem
from repro.runtime.evaluator import (
    EvaluatorPool,
    PlacementEvaluator,
    coalesce_evaluate,
)
from repro.scenarios import DEFAULT_REGISTRY, materialize
from repro.serve.batcher import RequestBatcher


@pytest.fixture(scope="module")
def problem():
    mat = materialize(DEFAULT_REGISTRY.get("stable-cluster", seed=0))
    return PlacementProblem(mat.initial_graphs[0], mat.initial_network)


@pytest.fixture(scope="module")
def objective():
    return DEFAULT_REGISTRY.get("stable-cluster", seed=0).make_objective()


@contextlib.contextmanager
def started(**limits):
    """A running batcher, stopped on the way out."""
    batcher = RequestBatcher(**limits).start()
    try:
        yield batcher
    finally:
        batcher.stop()


def placements_for(problem, count):
    sets = problem.feasible_sets
    return [
        tuple(s[(i + rank) % len(s)] for i, s in enumerate(sets))
        for rank in range(count)
    ]


class TestCoalesce:
    def test_groups_by_evaluator_and_preserves_order(self, problem, objective):
        ev_a = PlacementEvaluator(problem, objective)
        ev_b = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 6)
        requests = [(ev_a, ps[0:1]), (ev_b, ps[1:3]), (ev_a, ps[3:5]), (ev_b, ps[5:6])]
        values = coalesce_evaluate(requests)
        direct = [[float(ev.evaluate(p)) for p in placements] for ev, placements in requests]
        assert values == direct
        # one evaluate_many per evaluator, whatever the number of requests
        assert ev_a.stats.batch_calls == ev_b.stats.batch_calls == 1

    def test_empty_input(self):
        assert coalesce_evaluate([]) == []


class TestBatcher:
    @pytest.mark.parametrize("kwargs", [
        {"max_batch": 0}, {"max_wait_ms": -5.0}, {"max_wait_ms": float("nan")},
        {"max_wait_ms": float("inf")},
    ])
    def test_refuses_bad_limits(self, kwargs):
        with pytest.raises(ValueError):
            RequestBatcher(**kwargs)

    def test_values_match_direct_evaluation(self, problem, objective):
        reference = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 6)
        expected = [float(reference.evaluate(p)) for p in ps]
        served = PlacementEvaluator(problem, objective)
        with started(max_wait_ms=1.0) as batcher:
            values = batcher.submit_many(served, ps)
        assert values == expected

    def test_concurrent_submitters_coalesce(self, problem, objective):
        evaluator = PlacementEvaluator(problem, objective)
        reference = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 8)
        expected = {p: float(reference.evaluate(p)) for p in ps}
        results = {}
        lock = threading.Lock()
        with started(max_wait_ms=20.0) as batcher:
            barrier = threading.Barrier(len(ps))

            def submit(p):
                barrier.wait()
                value = batcher.submit_many(evaluator, [p])[0]
                with lock:
                    results[p] = value

            threads = [threading.Thread(target=submit, args=(p,)) for p in ps]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == expected
            # the linger window must have merged at least some requests
            assert batcher.batches < batcher.requests

    def test_evaluation_error_reaches_submitter(self, problem, objective):
        evaluator = PlacementEvaluator(problem, objective)
        bad = (0,) * (len(problem.feasible_sets) + 1)  # wrong length
        with started(max_wait_ms=1.0) as batcher:
            with pytest.raises(ValueError):
                batcher.submit_many(evaluator, [bad])
            # the batcher survives a poisoned batch
            good = placements_for(problem, 1)[0]
            assert batcher.submit_many(evaluator, [good])[0] == float(
                PlacementEvaluator(problem, objective).evaluate(good)
            )

    def test_bad_placement_fails_only_its_submitter(self, problem, objective):
        """Two submitters coalesce into one batch against one evaluator;
        the infeasible placement's error must not reach its neighbour."""
        evaluator = PlacementEvaluator(problem, objective)
        good = placements_for(problem, 3)
        bad = [[99] * len(problem.feasible_sets)]
        expected = [float(PlacementEvaluator(problem, objective).evaluate(p)) for p in good]
        outcomes = {}
        # The second enqueue wakes the drain thread out of its linger, so
        # the window only has to outlast the gap between the two submits.
        with started(max_wait_ms=2000.0) as batcher:
            barrier = threading.Barrier(2)

            def submit(name, placements):
                barrier.wait()
                try:
                    outcomes[name] = batcher.submit_many(evaluator, placements)
                except ValueError as error:
                    outcomes[name] = error

            threads = [
                threading.Thread(target=submit, args=("good", good)),
                threading.Thread(target=submit, args=("bad", bad)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert batcher.batches == 1  # the two requests did share a batch
        assert outcomes["good"] == expected
        assert isinstance(outcomes["bad"], ValueError)
        assert "task 0 placed on infeasible device index 99" in str(outcomes["bad"])

    def test_stop_finishes_queued_work(self, problem, objective):
        evaluator = PlacementEvaluator(problem, objective)
        batcher = RequestBatcher(max_wait_ms=50.0)
        batcher.start()
        ps = placements_for(problem, 3)
        holder = {}

        def submit():
            holder["values"] = batcher.submit_many(evaluator, ps)

        thread = threading.Thread(target=submit)
        thread.start()
        batcher.stop()
        thread.join(timeout=30)
        assert not thread.is_alive()
        reference = PlacementEvaluator(problem, objective)
        assert holder["values"] == [float(reference.evaluate(p)) for p in ps]

    def test_shares_pool_cache_across_batches(self, problem, objective):
        pool = EvaluatorPool(objective)
        evaluator = pool.get(problem)
        ps = placements_for(problem, 2)
        with started(max_wait_ms=1.0) as batcher:
            batcher.submit_many(evaluator, ps)
            batcher.submit_many(evaluator, ps)  # second pass: warm cache
        assert evaluator.stats.cache_hits >= len(ps)


def run_bounded(fn, limit_s=5.0):
    """Run ``fn`` in a helper thread; a call that hangs fails the test
    instead of wedging the suite.  Returns its value or its exception."""
    box = {}

    def target():
        try:
            box["outcome"] = fn()
        except BaseException as error:  # noqa: BLE001 - handed to the test
            box["outcome"] = error

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout=limit_s)
    assert not thread.is_alive(), f"still blocked after {limit_s} s"
    return box["outcome"]


class TestRequestShapes:
    """One waiter per ``submit_many`` call, released by a countdown over
    its placements: the shapes that countdown has to get right."""

    def test_empty_request_returns_without_enqueueing(self, problem, objective):
        evaluator = PlacementEvaluator(problem, objective)
        with started(max_wait_ms=1.0) as batcher:
            assert run_bounded(lambda: batcher.submit_many(evaluator, [])) == []
            assert batcher.requests == 0 and batcher.batches == 0
        assert evaluator.stats.batch_calls == 0

    def test_request_larger_than_max_batch(self, problem, objective):
        evaluator = PlacementEvaluator(problem, objective)
        reference = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 8)
        with started(max_wait_ms=1.0, max_batch=3) as batcher:
            values = run_bounded(lambda: batcher.submit_many(evaluator, ps))
            assert values == [float(reference.evaluate(p)) for p in ps]
            assert batcher.batches == 3  # 3 + 3 + 2: max_batch counts placements
            assert batcher.requests == 8

    def test_error_in_the_second_piece_of_a_straddling_request(self, problem, objective):
        """Six placements against ``max_batch=4``: the first four score
        cleanly, the infeasible sixth shares the next batch with another
        submitter.  The straddler raises; the neighbour is re-scored."""
        evaluator = PlacementEvaluator(problem, objective)
        reference = PlacementEvaluator(problem, objective)
        good = placements_for(problem, 7)
        straddler = good[:5] + [[99] * len(problem.feasible_sets)]
        neighbour = good[5:]
        outcomes = {}
        # The neighbour's enqueue wakes the drain thread out of its
        # linger over the straddler's two left-over placements.
        with started(max_wait_ms=2000.0, max_batch=4) as batcher:
            first = threading.Thread(
                target=lambda: outcomes.update(
                    straddler=run_bounded(lambda: batcher.submit_many(evaluator, straddler))
                )
            )
            first.start()
            deadline = time.monotonic() + 5.0
            while batcher.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            outcomes["neighbour"] = run_bounded(lambda: batcher.submit_many(evaluator, neighbour))
            first.join(timeout=10)
            assert not first.is_alive()
            assert batcher.batches == 2 and batcher.requests == 8
        assert outcomes["neighbour"] == [float(reference.evaluate(p)) for p in neighbour]
        assert isinstance(outcomes["straddler"], ValueError)
        assert "task 0 placed on infeasible device index 99" in str(outcomes["straddler"])


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
class TestDeadDrainThread:
    def test_in_flight_queued_and_later_submitters_fail_by_name(
        self, problem, objective, monkeypatch
    ):
        """An exception outside the per-batch guard kills the drain
        thread; nobody may be left waiting on it."""
        entered, release = threading.Event(), threading.Event()

        def boom(self, batch, error):
            entered.set()
            release.wait(timeout=5.0)
            raise RuntimeError("boom")

        monkeypatch.setattr(RequestBatcher, "_isolate_failure", boom)
        evaluator = PlacementEvaluator(problem, objective)
        bad = [[99] * len(problem.feasible_sets)]
        good = placements_for(problem, 2)
        message = "RequestBatcher drain thread died: RuntimeError('boom')"
        outcomes = {}

        def submit(name, placements):
            outcomes[name] = run_bounded(lambda: batcher.submit_many(evaluator, placements))

        batcher = RequestBatcher(max_wait_ms=0.0).start()
        threads = [
            threading.Thread(target=submit, args=("in flight", bad)),
            threading.Thread(target=submit, args=("queued", good)),
        ]
        threads[0].start()
        assert entered.wait(timeout=5.0)  # the failed batch is being isolated ...
        threads[1].start()
        deadline = time.monotonic() + 5.0
        while batcher.requests < 3 and time.monotonic() < deadline:
            time.sleep(0.001)  # ... and a second request queues up behind it
        release.set()
        for thread in threads:
            thread.join(timeout=10)
        outcomes["later"] = run_bounded(lambda: batcher.submit_many(evaluator, good))
        for name in ("in flight", "queued", "later"):
            assert isinstance(outcomes[name], RuntimeError), name
            assert str(outcomes[name]) == message, name
        assert run_bounded(batcher.stop) is None
        assert evaluator.stats.evaluations == 0  # nothing was scored behind the failure


def per_item_sizes(request_sizes, max_batch):
    """Batch sizes a queue of single placements cuts: every placement in
    arrival order, ``max_batch`` at a time."""
    total = sum(request_sizes)
    return [min(max_batch, total - lo) for lo in range(0, total, max_batch)]


class TestSpans:
    """The queue holds one span per ``submit_many`` call.  Requests queue
    up behind a held first batch, so the cut is deterministic."""

    def _serve(self, monkeypatch, gate_request, requests, max_batch=4):
        """Submit ``gate_request`` and, while its batch is held, each of
        ``requests`` in order; returns outcomes and each scored batch as
        ``[(evaluator, number of placements)]`` (re-scores of a failed batch included)."""
        import repro.serve.batcher as batcher_module

        score, release = batcher_module.coalesce_evaluate, threading.Event()
        scored = []

        def held_first(pairs):
            scored.append([(evaluator, len(ps)) for evaluator, ps in pairs])
            if len(scored) == 1:
                release.wait(timeout=5.0)
            return score(pairs)

        monkeypatch.setattr(batcher_module, "coalesce_evaluate", held_first)
        outcomes = [None] * (len(requests) + 1)
        with started(max_wait_ms=0.0, max_batch=max_batch) as batcher:
            threads = []
            queued = 0
            for r, (evaluator, placements) in enumerate([gate_request, *requests]):

                def submit(r=r, evaluator=evaluator, placements=placements):
                    outcomes[r] = run_bounded(lambda: batcher.submit_many(evaluator, placements))

                threads.append(threading.Thread(target=submit))
                threads[-1].start()
                queued += len(placements)
                deadline = time.monotonic() + 5.0
                while (batcher.requests < queued or not scored) and time.monotonic() < deadline:
                    time.sleep(0.001)  # in arrival order, behind the held batch
            release.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            counts = (batcher.batches, batcher.requests)
        return outcomes, scored, counts

    def test_interleaved_evaluators_and_a_straddling_request(self, problem, objective, monkeypatch):
        ev_a = PlacementEvaluator(problem, objective)
        ev_b = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 9)
        requests = [(ev_a, ps[1:4]), (ev_b, ps[4:7]), (ev_a, ps[7:9])]
        outcomes, scored, counts = self._serve(monkeypatch, (ev_a, ps[:1]), requests)
        reference = PlacementEvaluator(problem, objective)
        for (_, placements), values in zip([(ev_a, ps[:1]), *requests], outcomes):
            assert values == [reference.evaluate(p) for p in placements]
        # ev_b's request straddles the two batches, each batch mixes evaluators
        assert scored == [[(ev_a, 1)], [(ev_a, 3), (ev_b, 1)], [(ev_b, 2), (ev_a, 2)]]
        assert [sum(n for _, n in batch) for batch in scored] == [1, *per_item_sizes([3, 3, 2], 4)]
        assert counts == (3, 9)
        # one evaluate_many per evaluator per batch
        assert (ev_a.stats.batch_calls, ev_b.stats.batch_calls) == (3, 2)

    def test_failing_straddler_fails_alone(self, problem, objective, monkeypatch):
        ev_a = PlacementEvaluator(problem, objective)
        ev_b = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 8)
        bad = [99] * len(problem.feasible_sets)
        requests = [(ev_a, ps[1:4]), (ev_b, [*ps[4:6], bad]), (ev_a, ps[6:8])]
        outcomes, scored, counts = self._serve(monkeypatch, (ev_a, ps[:1]), requests)
        reference = PlacementEvaluator(problem, objective)
        for r, placements in ((0, ps[:1]), (1, ps[1:4]), (3, ps[6:8])):
            assert outcomes[r] == [reference.evaluate(p) for p in placements]
        assert isinstance(outcomes[2], ValueError)
        assert "task 0 placed on infeasible device index 99" in str(outcomes[2])
        # the failed third batch is re-scored one request at a time
        assert scored[2:] == [[(ev_b, 2), (ev_a, 2)], [(ev_b, 2)], [(ev_a, 2)]]
        assert counts == (3, 9)

    def test_many_submitters_under_a_short_switch_interval(self, problem, objective):
        """More submitters than cores, spans cut at ``max_batch=5``: every
        value still lands in its own request, every placement counted once."""
        evaluator = PlacementEvaluator(problem, objective)
        reference = PlacementEvaluator(problem, objective)
        ps = placements_for(problem, 12)
        expected = [reference.evaluate(p) for p in ps]
        requests = {t: [(t + j) % len(ps) for j in range(1 + t % 7)] for t in range(16)}
        outcomes = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with started(max_wait_ms=0.5, max_batch=5) as batcher:
                threads = [
                    threading.Thread(target=lambda t=t: outcomes.update({t: run_bounded(
                        lambda: batcher.submit_many(evaluator, [ps[i] for i in requests[t]]),
                        limit_s=20.0,
                    )}))
                    for t in requests
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                assert batcher.requests == sum(map(len, requests.values()))
        finally:
            sys.setswitchinterval(interval)
        assert outcomes == {t: [expected[i] for i in ix] for t, ix in requests.items()}
