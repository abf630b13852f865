"""``repro load``: seeded many-tenant load generation against the daemon.

Each tenant is one client connection replaying one scenario preset's
event stream as a sequence of ``event`` requests against its own
:class:`PlacementSession` — the serving analogue of a batch scenario
replay, with per-request wall-clock measured client-side.  Each tenant
runs on its own client thread: the clients spend their time blocked on
the socket, so this is I/O concurrency like the daemon's connection
threads, not a compute fan-out, and it does not go through
:mod:`repro.parallel`.

Everything is seeded: tenant *i* replays
``scenarios[i % len(scenarios)]`` at seed ``seed + i``, so a load run
is reproducible and every tenant's placements are bit-identical to the
corresponding batch replay.

The summary reports p50/p99/mean request latency and sustained
requests/sec.  With ``compare_cold`` the same single-event placement is
also run as a cold ``repro scenario run`` subprocess — the batch-stack
cost a warm request avoids — and the p50 speedup against it is reported.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from ..telemetry import log
from .client import ServeClient

__all__ = ["LoadConfig", "run_load", "format_load_summary"]


@dataclass(frozen=True)
class LoadConfig:
    """One load run (the ``repro load`` flags)."""

    socket_path: str
    scenarios: tuple[str, ...] = ("stable-cluster",)
    policy: str = "task-eft"
    clients: int = 4
    events_per_client: int | None = None  # None = each tenant's full stream
    seed: int = 0
    oracle: bool = False
    compare_cold: bool = False


def _run_tenant(config: LoadConfig, index: int) -> dict[str, Any]:
    """One tenant: open a session, request every event, measure each."""
    scenario = config.scenarios[index % len(config.scenarios)]
    seed = config.seed + index
    latencies_ms: list[float] = []
    with ServeClient(config.socket_path) as client:
        opened = client.open_session(
            scenario,
            policy=config.policy,
            seed=seed,
            oracle=config.oracle,
            max_events=config.events_per_client,
        )
        session = opened["session"]
        remaining = int(opened["events"])
        while remaining:
            began = time.perf_counter()
            response = client.event(session)
            latencies_ms.append((time.perf_counter() - began) * 1000.0)
            remaining = int(response["remaining"])
        client.close_session(session)
    return {
        "tenant": index,
        "scenario": scenario,
        "seed": seed,
        "latencies_ms": latencies_ms,
    }


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (no interpolation; stable for small N)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, max(0, int(round(q * (len(sorted_values) - 1)))))
    return float(sorted_values[rank])


def _cold_single_event_seconds(config: LoadConfig) -> float:
    """Wall-clock of a cold one-event ``repro scenario run`` subprocess.

    This is the startup bill every placement paid before the daemon
    existed: fresh interpreter, imports, materialization, cold caches —
    for the same single event a warm request serves in milliseconds.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "scenario",
        "run",
        config.scenarios[0],
        "--policy",
        config.policy,
        "--seed",
        str(config.seed),
        "--max-events",
        "1",
        "--no-oracle",
    ]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    began = time.perf_counter()
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    elapsed = time.perf_counter() - began
    if result.returncode != 0:
        raise RuntimeError(
            f"cold comparison run failed ({result.returncode}): {result.stderr[-500:]}"
        )
    return elapsed


def run_load(config: LoadConfig) -> dict[str, Any]:
    """Drive the daemon with ``config.clients`` tenants; return the summary."""
    if config.clients < 1:
        raise ValueError("clients must be >= 1")
    if not config.scenarios:
        raise ValueError("need at least one scenario preset")
    log.info(
        f"repro load: {config.clients} client(s) x "
        f"{config.events_per_client if config.events_per_client is not None else 'all'}"
        f" event(s) over {', '.join(config.scenarios)} "
        f"[policy {config.policy}]"
    )
    began = time.perf_counter()
    with ThreadPoolExecutor(
        max_workers=config.clients, thread_name_prefix="repro-load-client"
    ) as executor:
        tenants = list(
            executor.map(lambda i: _run_tenant(config, i), range(config.clients))
        )
    wall_s = time.perf_counter() - began

    latencies = sorted(ms for t in tenants for ms in t["latencies_ms"])
    requests = len(latencies)
    summary: dict[str, Any] = {
        "clients": config.clients,
        "scenarios": list(config.scenarios),
        "policy": config.policy,
        "seed": config.seed,
        "requests": requests,
        "wall_seconds": round(wall_s, 4),
        "requests_per_second": round(requests / wall_s, 2) if wall_s > 0 else 0.0,
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50), 3),
            "p99": round(_percentile(latencies, 0.99), 3),
            "mean": round(sum(latencies) / requests, 3) if requests else 0.0,
            "max": round(latencies[-1], 3) if requests else 0.0,
        },
    }
    if config.compare_cold:
        cold_s = _cold_single_event_seconds(config)
        summary["cold_single_event_seconds"] = round(cold_s, 4)
        p50_s = summary["latency_ms"]["p50"] / 1000.0
        summary["warm_speedup_vs_cold"] = round(cold_s / p50_s, 1) if p50_s > 0 else 0.0
    return summary


def format_load_summary(summary: dict[str, Any]) -> str:
    lat = summary["latency_ms"]
    lines = [
        f"load: {summary['requests']} requests from {summary['clients']} client(s) "
        f"in {summary['wall_seconds']:.2f}s "
        f"({summary['requests_per_second']:.1f} req/s)",
        f"  latency: p50 {lat['p50']:.2f} ms, p99 {lat['p99']:.2f} ms, "
        f"mean {lat['mean']:.2f} ms, max {lat['max']:.2f} ms",
    ]
    if "cold_single_event_seconds" in summary:
        lines.append(
            f"  cold single-event scenario run: "
            f"{summary['cold_single_event_seconds']:.2f} s "
            f"-> warm p50 is {summary['warm_speedup_vs_cold']:.0f}x faster"
        )
    return "\n".join(lines)
