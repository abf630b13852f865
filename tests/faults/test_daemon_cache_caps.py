"""Fault harness: client-chosen (scenario, seed) pairs cannot grow the daemon.

The daemon caches one materialization and one evaluate pool per
``(scenario, seed)`` a client names.  Both caches are LRUs of
``CACHE_ENTRIES`` entries: a sweep over more pairs than that leaves each
cache at the cap, an evicted pair is rebuilt (deterministically) when
named again, and an open session whose materialization was evicted keeps
stepping on its own copy.  Every socket read carries a timeout, so a
daemon that never answers fails the test instead of hanging the suite.
"""

import pathlib
import tempfile

import numpy as np
import pytest

from repro.core import PlacementProblem, random_placement
from repro.scenarios.events import materialize
from repro.scenarios.registry import DEFAULT_REGISTRY
from repro.serve.client import ServeClient
from repro.serve.server import CACHE_ENTRIES, PlacementServer, ServeConfig

DEADLINE_S = 10.0
SWEEP = 200


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


def _placement(scenario: str, seed: int) -> list[int]:
    """A feasible placement of the pair's graph 0, built client-side."""
    mat = materialize(DEFAULT_REGISTRY.get(scenario, seed=seed))
    problem = PlacementProblem(mat.initial_graphs[0], mat.initial_network)
    return list(random_placement(problem, np.random.default_rng(seed)))


def test_sweep_holds_both_caches_at_the_cap(server):
    assert SWEEP > CACHE_ENTRIES
    names = DEFAULT_REGISTRY.names()
    pairs = [(names[i % len(names)], 100 + i) for i in range(SWEEP)]
    kept = ("stable-cluster", 0)
    with ServeClient(server.config.socket_path, timeout_s=DEADLINE_S) as client:
        opened = client.open_session(kept[0], seed=kept[1], oracle=False)
        session = opened["session"]
        first = client.event(session)
        placement = _placement(*kept)
        before = client.evaluate(kept[0], [placement], seed=kept[1])

        for k, (scenario, seed) in enumerate(pairs):
            client.evaluate(scenario, [_placement(scenario, seed)], seed=seed)
            cached = client.stats()["cached"]
            size = min(k + 2, CACHE_ENTRIES)  # the kept pair sits in both until evicted
            assert cached == {"materialized": size, "evaluate": size}, (k, cached)
        assert kept not in server._materialized and kept not in server._eval_cache

        # The session holds its own materialization: it steps on from where
        # it was, and no request was refused for the cap.
        second = client.event(session)
        assert second["remaining"] == first["remaining"] - 1
        # The evicted pair is rebuilt on demand, with the same values.
        assert client.evaluate(kept[0], [placement], seed=kept[1]) == before
        assert client.stats()["cached"] == {
            "materialized": CACHE_ENTRIES, "evaluate": CACHE_ENTRIES
        }
        client.close_session(session)
