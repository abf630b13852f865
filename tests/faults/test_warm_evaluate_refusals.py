"""Fault harness: a warm daemon refuses a bad ``evaluate`` row by name.

The daemon's evaluator caches key a placement by its packed bytes, and
JSON ``true`` packs and validates as ``1``.  So on a target whose cache
already holds ``[0] * n``, a row that differs from it only in a ``true``,
a ``1.0``, a ``-1``, a ``256``, a ``70000`` or one missing device must
still be refused: ``ok: false``, with a message that names the placement
(its index in the request) and the task at fault — for a short row, the
task count.  A refusal leaves no trace: the daemon's ``cached`` stats,
the evaluator's counters and both LRUs are as they were, and the next
valid request gets what a fresh evaluator gives.  Every socket read
carries a timeout, so a daemon that never answers fails the test
instead of hanging the suite.

``ServeClient.evaluate`` sends each row as it is given: a ``1.0`` or a
``True`` reaches the daemon and is refused there by name, while NumPy
ints go out as the ints they hold.
"""

import pathlib
import tempfile

import numpy as np
import pytest

from repro.core import PlacementProblem
from repro.runtime import PlacementEvaluator
from repro.scenarios.events import materialize
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.server import PlacementServer, ServeConfig

DEADLINE_S = 10.0
SCENARIO, SEED = "adversarial-hot-device", 0  # device 0 runs every task of graph 0
TASK = 3  # where a bad row differs from the cached one


@pytest.fixture()
def server():
    # AF_UNIX paths are capped near 100 chars; tmp_path can be longer.
    with tempfile.TemporaryDirectory(prefix="repro-faults-", dir="/tmp") as tmp:
        path = str(pathlib.Path(tmp) / "serve.sock")
        server = PlacementServer(ServeConfig(socket_path=path)).start()
        try:
            yield server
        finally:
            server.stop()


def _bad_rows(n: int) -> dict[str, tuple[list, str]]:
    """Each bad row beside the text its refusal must carry."""
    rows = {}
    for name, device in [("true", True), ("float", 1.0), ("negative", -1), ("256", 256),
                         ("70000", 70000)]:
        row = [0] * n
        row[TASK] = device
        rows[name] = row, f"task {TASK}"
    rows["short"] = [0] * (n - 1), f"{n} tasks"
    return rows


def _evaluator_state(server) -> tuple:
    problems, pool = server._eval_cache[(SCENARIO, SEED)]
    evaluator = pool.get(problems[0])
    return (
        evaluator.stats.counters(),
        [evaluator._keys.unpack(key) for key in evaluator._values],
        [evaluator._keys.unpack(key) for key in evaluator._timelines],
    )


def test_bad_rows_are_refused_by_name_and_leave_no_trace(server):
    mat = materialize(DEFAULT_REGISTRY.get(SCENARIO, seed=SEED))
    problem = PlacementProblem(mat.initial_graphs[0], mat.initial_network)
    n = problem.graph.num_tasks
    zeros = [0] * n
    assert problem.validate_placement(zeros) == tuple(zeros)  # the warm row is feasible
    assert problem.network.num_devices <= 256  # one-byte keys: 256 cannot pack
    with ServeClient(server.config.socket_path, timeout_s=DEADLINE_S) as client:
        warm = client.evaluate(SCENARIO, [zeros], seed=SEED)
        before = client.stats()["cached"], _evaluator_state(server)
        assert before[1][1] == [tuple(zeros)]  # the cache holds the row a bad one resembles

        for name, (row, names_task) in _bad_rows(n).items():
            with pytest.raises(ServeRequestError) as refused:
                client.request("evaluate", scenario=SCENARIO, seed=SEED, placements=[zeros, row])
            response = refused.value.response
            assert response["ok"] is False, name
            assert response["error"].startswith("placement 1: "), (name, response["error"])
            assert names_task in response["error"], (name, response["error"])
            assert (client.stats()["cached"], _evaluator_state(server)) == before, name

        other = list(zeros)
        other[TASK] = next(d for d in sorted(problem.feasible_sets[TASK]) if d != 0)
        values = client.evaluate(SCENARIO, [zeros, other], seed=SEED)
    fresh = PlacementEvaluator(problem, mat.spec.make_objective())
    assert values == fresh.evaluate_many([zeros, other]).tolist()
    assert values[0] == warm[0]


def _client_rows() -> tuple[list, list]:
    """The warm all-zeros row and the feasible row with device 1 at ``TASK``."""
    mat = materialize(DEFAULT_REGISTRY.get(SCENARIO, seed=SEED))
    problem = PlacementProblem(mat.initial_graphs[0], mat.initial_network)
    zeros = [0] * problem.graph.num_tasks
    ones = list(zeros)
    ones[TASK] = 1
    assert problem.validate_placement(ones) == tuple(ones)  # 1 is a device here
    return zeros, ones


@pytest.mark.parametrize("device", [1.0, True], ids=["float", "true"])
def test_client_evaluate_coerces_nothing(server, device):
    zeros, _ = _client_rows()
    row = list(zeros)
    row[TASK] = device
    with ServeClient(server.config.socket_path, timeout_s=DEADLINE_S) as client:
        with pytest.raises(ServeRequestError) as refused:
            client.evaluate(SCENARIO, [zeros, row], seed=SEED)
    error = refused.value.response["error"]
    assert error.startswith(f"placement 1: task {TASK}: "), (device, error)


def test_client_evaluate_sends_numpy_ints_as_ints(server):
    zeros, ones = _client_rows()
    with ServeClient(server.config.socket_path, timeout_s=DEADLINE_S) as client:
        values = client.evaluate(SCENARIO, [zeros, ones], seed=SEED)
        as_numpy = [np.array(zeros), [np.int64(d) for d in ones]]
        assert client.evaluate(SCENARIO, as_numpy, seed=SEED) == values
