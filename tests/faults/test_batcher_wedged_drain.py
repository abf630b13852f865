"""Fault harness: a drain thread that is alive but stuck fails its callers.

The evaluator's ``evaluate_many`` blocks on an event the test holds, so
the batcher's drain thread wedges inside a batch.  Every ``evaluate``
call must then fail by name once ``DRAIN_TIMEOUT_S`` (patched down here)
passes, and a call still queued behind the wedged batch must be taken
back, never scored.  Callers run on threads joined with a timeout, and
daemon reads carry one, so a caller that waits forever fails the test
instead of hanging the suite.
"""

import pathlib
import tempfile
import threading

import numpy as np
import pytest

import repro.serve.batcher as batcher_module
from repro.serve.batcher import RequestBatcher
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import PlacementServer, ServeConfig

DRAIN_TIMEOUT_S = 0.5
DEADLINE_S = 10.0


@pytest.fixture()
def release(monkeypatch):
    monkeypatch.setattr(batcher_module, "DRAIN_TIMEOUT_S", DRAIN_TIMEOUT_S, raising=False)
    event = threading.Event()
    yield event
    event.set()  # unwedge the drain thread so it can stop


class _WedgedEvaluator:
    """Blocks in ``evaluate_many`` until released; counts its calls."""

    def __init__(self, release: threading.Event) -> None:
        self.release = release
        self.entered = threading.Event()
        self.calls = 0

    def evaluate_many(self, placements):
        self.calls += 1
        self.entered.set()
        self.release.wait()
        return np.zeros(len(placements))


def _submit_on_thread(batcher, evaluator, placements):
    outcome: dict = {}

    def call():
        try:
            outcome["values"] = batcher.submit_many(evaluator, placements)
        except BaseException as error:  # noqa: BLE001 - asserted below
            outcome["error"] = error

    thread = threading.Thread(target=call, daemon=True)
    thread.start()
    return thread, outcome


def test_wedged_drain_thread_fails_each_caller_by_name(release):
    evaluator = _WedgedEvaluator(release)
    batcher = RequestBatcher(max_wait_ms=0.0).start()
    try:
        wedged, wedged_outcome = _submit_on_thread(batcher, evaluator, [[0], [1]])
        assert evaluator.entered.wait(DEADLINE_S), "the drain thread never took the batch"
        queued, queued_outcome = _submit_on_thread(batcher, evaluator, [[0], [1], [2]])
        for thread, n, outcome in ((wedged, 2, wedged_outcome), (queued, 3, queued_outcome)):
            thread.join(DEADLINE_S)
            if thread.is_alive():
                pytest.fail(f"evaluate of {n} placements still blocked {DEADLINE_S:.0f} s "
                            "after the drain thread wedged")
            error = outcome.get("error")
            assert isinstance(error, TimeoutError), outcome
            assert str(error) == (f"evaluate of {n} placements got no result from the drain "
                                  f"thread within {DRAIN_TIMEOUT_S:g} s")
    finally:
        release.set()
        batcher.stop()
    assert evaluator.calls == 1  # the queued call was taken back, never scored


def test_daemon_answers_a_wedged_evaluate_with_ok_false(release, monkeypatch):
    def wedged_coalesce(requests):
        release.wait()
        return [[0.0] * len(placements) for _, placements in requests]

    monkeypatch.setattr(batcher_module, "coalesce_evaluate", wedged_coalesce)
    # AF_UNIX paths are capped near 100 chars; tmp_path can be longer.
    with tempfile.TemporaryDirectory(prefix="repro-faults-", dir="/tmp") as tmp:
        path = str(pathlib.Path(tmp) / "serve.sock")
        server = PlacementServer(ServeConfig(socket_path=path)).start()
        try:
            with ServeClient(path, timeout_s=DEADLINE_S) as client:
                with pytest.raises(ServeRequestError, match="got no result from the drain thread"):
                    client.evaluate("stable-cluster", [[0]], seed=0)
                assert client.ping()["ok"]  # the daemon still serves
        finally:
            release.set()
            server.stop()
