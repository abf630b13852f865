"""Micro-benchmark: warm serving latency vs the cold batch stack.

Starts an in-process :class:`PlacementServer`, drives it with the
seeded many-tenant load generator at client concurrency 4, and compares
the warm per-request p50 against a cold one-event
``repro scenario run`` subprocess — the full interpreter + import +
materialization bill every placement paid before the daemon existed.

The acceptance gate for placement-as-a-service: the warm request p50
must be at least 10x faster than the cold single-event run.  The load
summary (p50/p99 latency, requests/sec, cold comparison) is printed.
"""

import pathlib
import tempfile

from repro.scenarios import DEFAULT_REGISTRY, materialize
from repro.serve.load import LoadConfig, format_load_summary, run_load
from repro.serve.server import PlacementServer, ServeConfig

SPEEDUP_GATE = 10.0


def test_warm_request_p50_beats_cold_scenario_run():
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-", dir="/tmp") as tmp:
        socket_path = str(pathlib.Path(tmp) / "serve.sock")
        server = PlacementServer(ServeConfig(socket_path=socket_path))
        server.start()
        try:
            config = LoadConfig(
                socket_path=socket_path,
                scenarios=("stable-cluster", "edge-churn"),
                policy="task-eft",
                clients=4,
                seed=0,
                oracle=False,  # the cold reference runs --no-oracle
                compare_cold=True,
            )
            summary = run_load(config)
        finally:
            server.stop()

    print(format_load_summary(summary))

    latency = summary["latency_ms"]
    # Every tenant's client thread replayed its whole stream: tenant i
    # runs scenarios[i % 2] at seed + i.
    streams = sum(
        materialize(
            DEFAULT_REGISTRY.get(config.scenarios[i % 2], seed=config.seed + i)
        ).num_events
        for i in range(config.clients)
    )
    assert summary["requests"] == streams > 0
    assert 0.0 < latency["p50"] <= latency["p99"] <= latency["max"]
    assert summary["requests_per_second"] > 0

    # The point of serving: a warm request must dominate a cold run of
    # the batch stack for the same single placement event.
    assert summary["warm_speedup_vs_cold"] >= SPEEDUP_GATE, (
        f"warm p50 {latency['p50']:.2f} ms is only "
        f"{summary['warm_speedup_vs_cold']:.1f}x faster than a cold "
        f"single-event scenario run "
        f"({summary['cold_single_event_seconds']:.2f} s); need >= {SPEEDUP_GATE}x"
    )
