"""Daemon equivalence and request semantics over the wire.

The acceptance bar for placement-as-a-service: replaying scenario
presets through the daemon — at client concurrency 1 and 4 — produces
AdaptationReports byte-identical to the in-process ScenarioRunner.
"""

import json
import threading

import pytest

from repro.baselines import RandomTaskEftPolicy
from repro.core.placement import PlacementProblem
from repro.runtime.evaluator import PlacementEvaluator
from repro.scenarios import DEFAULT_REGISTRY, ScenarioRunner, materialize
from repro.serve.client import ServeClient, ServeRequestError

PRESETS = ["stable-cluster", "edge-churn", "bandwidth-degradation"]
SEED = 3


def canonical(report_dict):
    return json.dumps(report_dict, sort_keys=True)


@pytest.fixture(scope="module")
def references():
    out = {}
    for name in PRESETS:
        spec = DEFAULT_REGISTRY.get(name, seed=SEED)
        result = ScenarioRunner(spec).run({"task-eft": RandomTaskEftPolicy()})
        out[name] = canonical(result.reports["task-eft"].as_dict(include_timing=False))
    return out


def replay_through_daemon(socket_path, preset):
    """One tenant: open, drain every event, fetch the canonical report."""
    with ServeClient(socket_path) as client:
        opened = client.open_session(preset, policy="task-eft", seed=SEED, oracle=True)
        session = opened["session"]
        remaining = int(opened["events"])
        while remaining:
            remaining = int(client.event(session)["remaining"])
        report = client.report(session, include_timing=False)["report"]
        client.close_session(session)
    return canonical(report)


class TestEquivalence:
    def test_serial_replay_matches_runner(self, server, socket_path, references):
        for preset in PRESETS:
            assert replay_through_daemon(socket_path, preset) == references[preset]

    def test_concurrent_replay_matches_runner(self, server, socket_path, references):
        jobs = PRESETS + [PRESETS[0]]  # 4 concurrent tenants
        results = [None] * len(jobs)
        errors = []

        def tenant(i, preset):
            try:
                results[i] = replay_through_daemon(socket_path, preset)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=tenant, args=(i, preset))
            for i, preset in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for preset, got in zip(jobs, results):
            assert got == references[preset]


class TestRequestSemantics:
    def test_ping_reports_protocol(self, server, socket_path):
        with ServeClient(socket_path) as client:
            pong = client.ping()
        assert pong["protocol"] == 1 and pong["pid"] > 0

    def test_evaluate_matches_in_process(self, server, socket_path):
        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        mat = materialize(spec)
        problem = PlacementProblem(mat.initial_graphs[0], mat.initial_network)
        sets = problem.feasible_sets
        p0 = [s[0] for s in sets]
        p1 = [s[-1] for s in sets]
        evaluator = PlacementEvaluator(problem, spec.make_objective())
        expected = [float(evaluator.evaluate(tuple(p0))), float(evaluator.evaluate(tuple(p1)))]
        with ServeClient(socket_path) as client:
            values = client.evaluate("stable-cluster", [p0, p1, p0], seed=0)
        assert values == [expected[0], expected[1], expected[0]]

    def test_bad_placement_fails_only_its_connection(self, socket_path):
        """Two connections' evaluate requests coalesce into one batch; the
        infeasible one answers ok:false, the other gets its values."""
        from repro.serve.server import PlacementServer, ServeConfig

        spec = DEFAULT_REGISTRY.get("stable-cluster", seed=0)
        mat = materialize(spec)
        problem = PlacementProblem(mat.initial_graphs[0], mat.initial_network)
        good = [[s[0] for s in problem.feasible_sets], [s[-1] for s in problem.feasible_sets]]
        bad = [[99] * problem.graph.num_tasks]
        reference = PlacementEvaluator(problem, spec.make_objective())
        expected = [float(reference.evaluate(p)) for p in good]

        # The second request wakes the batcher out of its linger, so the
        # window only has to outlast the gap between the two requests.
        server = PlacementServer(ServeConfig(socket_path=socket_path, batch_wait_ms=2000.0))
        server.start()
        try:
            outcomes = {}
            barrier = threading.Barrier(2)

            def evaluate(name, placements):
                with ServeClient(socket_path) as client:
                    client.ping()
                    barrier.wait()
                    try:
                        outcomes[name] = client.evaluate("stable-cluster", placements, seed=0)
                    except ServeRequestError as error:
                        outcomes[name] = error

            with ServeClient(socket_path) as client:  # materialise before the race
                client.evaluate("stable-cluster", good[:1], seed=0)
            batches_before = server.batcher.batches
            threads = [
                threading.Thread(target=evaluate, args=("good", good)),
                threading.Thread(target=evaluate, args=("bad", bad)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert server.batcher.batches == batches_before + 1  # one shared batch
        finally:
            server.stop()
        assert outcomes["good"] == expected
        assert isinstance(outcomes["bad"], ServeRequestError)
        assert outcomes["bad"].response["ok"] is False
        assert "infeasible device index 99" in outcomes["bad"].response["error"]

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_batcher_answers_ok_false_and_the_daemon_keeps_serving(
        self, server, socket_path, monkeypatch
    ):
        """The batcher's drain thread dies under an evaluate request: that
        connection gets one named ok:false (not silence), and requests
        that do not need the batcher are still answered."""
        from repro.serve.batcher import RequestBatcher

        def boom(self, batch, error):
            raise RuntimeError("boom")

        monkeypatch.setattr(RequestBatcher, "_isolate_failure", boom)
        outcome = {}

        def evaluate():
            with ServeClient(socket_path, timeout_s=5.0) as client:
                try:
                    outcome["values"] = client.evaluate("stable-cluster", [[99] * 10], seed=0)
                except (ServeRequestError, OSError) as error:
                    outcome["error"] = error

        thread = threading.Thread(target=evaluate, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        error = outcome["error"]
        assert isinstance(error, ServeRequestError)
        assert error.response["ok"] is False
        assert "RequestBatcher drain thread died: RuntimeError('boom')" in error.response["error"]
        with ServeClient(socket_path, timeout_s=5.0) as client:
            assert client.ping()["protocol"] == 1
            with pytest.raises(ServeRequestError, match="drain thread died"):
                client.evaluate("stable-cluster", [[0] * 10], seed=0)

    def test_unknown_op_rejected(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError):
                client.request("teleport")

    def test_unknown_scenario_and_policy_rejected(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError):
                client.open_session("no-such-preset")
            with pytest.raises(ServeRequestError):
                client.open_session("stable-cluster", policy="no-such-policy")

    def test_event_on_unknown_session_rejected(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError):
                client.event("s999")

    def test_error_reply_echoes_the_request_id(self, server, socket_path):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError) as failed:
                client.request("event", session="nope", id="r9")
        assert failed.value.response["ok"] is False
        assert failed.value.response["id"] == "r9"

    def test_event_past_end_rejected(self, server, socket_path):
        with ServeClient(socket_path) as client:
            opened = client.open_session(
                "stable-cluster", seed=0, oracle=False, max_events=1
            )
            session = opened["session"]
            assert opened["events"] == 1
            assert client.event(session)["remaining"] == 0
            with pytest.raises(ServeRequestError):
                client.event(session)

    @pytest.mark.parametrize("max_events", [True, "2", 2.5, 15])
    def test_open_rejects_a_bad_max_events(self, server, socket_path, max_events):
        with ServeClient(socket_path) as client:
            # Cache a 1-event cut first: True must not be served as 1.
            client.open_session("edge-churn", seed=0, oracle=False, max_events=1)
            with pytest.raises(ServeRequestError, match="max_events") as failed:
                client.request(
                    "open", scenario="edge-churn", seed=0, max_events=max_events
                )
        assert failed.value.response["ok"] is False

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 2.5), ("seed", True), ("episode_multiplier", 2.9), ("oracle", "false"),
         ("oracle", 1)],
    )
    def test_open_refuses_what_it_would_coerce(self, server, socket_path, field, value):
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError, match=f"{field} must be an? "):
                client.request("open", scenario="stable-cluster", max_events=1, **{field: value})
            assert client.stats()["open_sessions"] == 0

    @pytest.mark.parametrize(
        "field, value", [("graph", 1.9), ("graph", True), ("graph", "x"), ("seed", 3.7)]
    )
    def test_evaluate_refuses_what_it_would_coerce(self, server, socket_path, field, value):
        mat = materialize(DEFAULT_REGISTRY.get("stable-cluster", seed=3))
        feasible = PlacementProblem(mat.initial_graphs[1], mat.initial_network).feasible_sets
        placement = [s[0] for s in feasible]
        address = {"scenario": "stable-cluster", "seed": 3, "graph": 1, field: value}
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError, match=f"{field} must be an int, not {value!r}"):
                client.request("evaluate", placements=[placement], **address)

    def test_evaluate_refuses_a_fractional_device(self, server, socket_path):
        """``[0.9] * n`` used to be scored as ``[0] * n``."""
        mat = materialize(DEFAULT_REGISTRY.get("stable-cluster", seed=0))
        n = mat.initial_graphs[0].num_tasks
        with ServeClient(socket_path) as client:
            with pytest.raises(ServeRequestError, match="task 0: device index must be an int"):
                client.request("evaluate", scenario="stable-cluster", seed=0, placements=[[0.9] * n])

    @pytest.mark.parametrize("spell", [float, bool], ids=["float", "bool"])
    def test_evaluate_refuses_an_int_equal_device_after_an_int_warm_up(
        self, server, socket_path, spell
    ):
        """A ``1.0`` or ``true`` device index equal to a cached ``1`` used
        to be answered from the cache (a float on a miss was refused)."""
        mat = materialize(DEFAULT_REGISTRY.get("stable-cluster", seed=0))
        feasible = PlacementProblem(mat.initial_graphs[0], mat.initial_network).feasible_sets
        placement = [1 if 1 in s else s[0] for s in feasible]
        task = placement.index(1)
        respelled = list(placement)
        respelled[task] = spell(1)
        address = {"scenario": "stable-cluster", "seed": 0}
        with ServeClient(socket_path) as client:
            (value,) = client.evaluate(placements=[placement], **address)
            assert value > 0
            with pytest.raises(
                ServeRequestError,
                match=f"placement 1: task {task}: device index must be an int, "
                f"not {respelled[task]!r}",
            ):
                client.request("evaluate", placements=[placement, respelled], **address)
            with pytest.raises(ServeRequestError, match="placement 0 must be a list of ints"):
                client.request("evaluate", placements=[{"0": 1}], **address)

    def test_malformed_line_gets_error_not_disconnect(self, server, socket_path):
        import socket as socket_mod

        sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
        sock.connect(socket_path)
        sock.settimeout(30)
        try:
            sock.sendall(b"{this is not json}\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
            response = json.loads(data)
            assert response["ok"] is False and "error" in response
        finally:
            sock.close()

    def test_oversized_frame_gets_one_error_then_eof(self, server, socket_path, monkeypatch):
        """A line past ``MAX_FRAME_BYTES`` costs its own connection only."""
        import socket as socket_mod

        limit = 64
        monkeypatch.setattr("repro.serve.server.MAX_FRAME_BYTES", limit)

        def exchange(payload: bytes, until_eof: bool) -> bytes:
            sock = socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM)
            sock.settimeout(10)  # an unbounded reader waits for the newline forever
            try:
                sock.connect(socket_path)
                sock.sendall(payload)
                data = b""
                while until_eof or not data.endswith(b"\n"):
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
                return data
            finally:
                sock.close()

        # No newline, one byte over: one error naming the limit, then EOF.
        answer = exchange(b"x" * (limit + 1), until_eof=True)
        assert answer.count(b"\n") == 1
        response = json.loads(answer)
        assert response["ok"] is False
        assert "MAX_FRAME_BYTES" in response["error"] and str(limit) in response["error"]

        # The daemon and its other connections are unaffected.
        with ServeClient(socket_path) as client:
            assert client.ping()["ok"] is True

        # A frame of exactly the limit is a request like any other.
        padded = b'{"op":"ping"}'.ljust(limit) + b"\n"
        assert json.loads(exchange(padded, until_eof=False))["ok"] is True

    def test_stats_counts_requests(self, server, socket_path):
        with ServeClient(socket_path) as client:
            client.ping()
            stats = client.stats()
        assert stats["requests"] >= 1
        assert "batched_requests" in stats and "latency_ms" in stats

    def test_sessions_isolated_by_id(self, server, socket_path):
        with ServeClient(socket_path) as client:
            a = client.open_session("stable-cluster", seed=0, oracle=False)["session"]
            b = client.open_session("stable-cluster", seed=0, oracle=False)["session"]
            assert a != b
            first = client.event(a)["record"]
            second = client.event(b)["record"]
            first.pop("replace_seconds"), second.pop("replace_seconds")
            assert first == second  # same preset+seed: same placement outcome
            client.close_session(a)
            client.close_session(b)
            with pytest.raises(ServeRequestError):
                client.event(a)
