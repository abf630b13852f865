"""Placement-as-a-service: the request-serving runtime.

The batch stack (:mod:`repro.scenarios`) replays whole scenarios in one
process; this package carves that per-event logic into a long-lived
serving runtime:

* :mod:`repro.serve.session` — :class:`PlacementSession`, the one
  per-event adapt → repair → search → migrate state machine, on pooled
  evaluators.  Both the batch runner and the daemon drive it, so a
  scenario replayed through the server yields bit-identical
  :class:`AdaptationReport`s.
* :mod:`repro.serve.protocol` — the JSON-lines request protocol.
* :mod:`repro.serve.batcher` — coalesces concurrent evaluate requests
  into one ``evaluate_many`` call.
* :mod:`repro.serve.server` — the ``repro serve`` daemon (AF_UNIX
  socket, one thread per connection, graceful drain on SIGTERM).
* :mod:`repro.serve.client` — a blocking JSON-lines client.
* :mod:`repro.serve.load` — ``repro load``, the seeded many-tenant
  load generator reporting p50/p99 latency and requests/sec.

Submodules are imported lazily (the session is imported by the scenario
runner; pulling the whole daemon stack in with it would be wasteful and
circular).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "PlacementSession",
    "PlacementServer",
    "ServeClient",
    "ServeConfig",
    "LoadConfig",
    "run_load",
]

_EXPORTS = {
    "PlacementSession": ("session", "PlacementSession"),
    "PlacementServer": ("server", "PlacementServer"),
    "ServeConfig": ("server", "ServeConfig"),
    "ServeClient": ("client", "ServeClient"),
    "LoadConfig": ("load", "LoadConfig"),
    "run_load": ("load", "run_load"),
}


def __getattr__(name: str) -> Any:  # PEP 562 lazy exports
    try:
        module_name, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attr)


def __dir__() -> list[str]:
    return sorted(__all__)
