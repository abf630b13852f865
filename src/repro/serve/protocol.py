"""JSON-lines protocol spoken between the daemon and its clients.

One request per line, one response line per request, over a local
``AF_UNIX`` stream socket.  Requests are JSON objects with an ``op``
field and op-specific arguments; responses echo the request's optional
``id`` tag and always carry ``ok`` (with ``error`` describing the
failure when false).  Encoding is canonical (sorted keys, compact
separators) so protocol-level payloads are byte-stable — the property
the serve equivalence suite compares reports with.

Ops
---
``ping``      liveness + daemon identity (pid, uptime).
``open``      start a :class:`~repro.serve.session.PlacementSession`
              for ``(scenario, seed, policy)``; returns a session id.
``event``     advance an open session by one scenario event; returns
              the resulting step record and the remaining event count.
``report``    the session's canonical ``AdaptationReport`` dict
              (timing fields excluded — the byte-comparable form).
``close``     drop a session (a connection's end drops the sessions
              it opened).
``evaluate``  score placements against a scenario's initial problems
              through the server's warm evaluator pool; concurrent
              calls coalesce into one ``evaluate_many`` batch.
``stats``     server counters (requests, batches, open sessions).
``shutdown``  ask the daemon to drain and exit (same path as SIGTERM).
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
]

PROTOCOL_VERSION = 1

# Longest request line the daemon buffers before it answers with an
# error and hangs up (the largest benchmarked request is kilobytes).
MAX_FRAME_BYTES = 16 * 2**20

OPS = ("ping", "open", "event", "report", "close", "evaluate", "stats", "shutdown")


class ProtocolError(ValueError):
    """A line that is not a valid protocol message."""


def encode_message(message: dict[str, Any]) -> bytes:
    """Canonical one-line encoding (sorted keys, compact, ``\\n``-terminated)."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode_message(line: bytes | str) -> dict[str, Any]:
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty message line")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(message).__name__}")
    return message


def ok_response(op: str, request: dict[str, Any] | None = None, **fields: Any) -> dict:
    response = {"ok": True, "op": op, **fields}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response


def error_response(
    op: str, error: str, request: dict[str, Any] | None = None, **fields: Any
) -> dict:
    response = {"ok": False, "op": op, "error": error, **fields}
    if request is not None and "id" in request:
        response["id"] = request["id"]
    return response
