"""Blocking JSON-lines client for the placement daemon.

:class:`ServeClient` wraps one ``AF_UNIX`` connection: each
:meth:`request` writes one protocol line and blocks for the matching
response line (the daemon answers a connection's requests in order).
``connect`` retries briefly by default so tests and the load generator
can race the daemon's startup.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Sequence

import numpy as np

from .protocol import decode_message, encode_message

__all__ = ["ServeClient", "ServeRequestError"]


def _plain(device: Any) -> Any:
    """A NumPy value as the Python value it holds (``tolist``), anything
    else as it is: the daemon accepts or refuses it, nothing is coerced."""
    return device.tolist() if isinstance(device, (np.generic, np.ndarray)) else device


class ServeRequestError(RuntimeError):
    """The daemon answered ``ok: false``; carries the full response."""

    def __init__(self, response: dict[str, Any]) -> None:
        super().__init__(response.get("error", "request failed"))
        self.response = response


class ServeClient:
    """One connection to a :class:`~repro.serve.server.PlacementServer`."""

    def __init__(
        self,
        socket_path: str,
        timeout_s: float = 120.0,
        connect_retry_s: float = 5.0,
    ) -> None:
        self.socket_path = str(socket_path)
        self.timeout_s = timeout_s
        deadline = time.monotonic() + max(0.0, connect_retry_s)
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(self.socket_path)
                break
            except OSError:
                sock.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)
        sock.settimeout(timeout_s)
        self._sock = sock
        self._buffer = bytearray()

    # -- transport ---------------------------------------------------------------

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request; return the (``ok: true``) response fields."""
        self._sock.sendall(encode_message({"op": op, **fields}))
        line = self._readline()
        if not line:
            raise ConnectionError(
                f"daemon at {self.socket_path} closed the connection mid-request"
            )
        response = decode_message(line)
        if not response.get("ok"):
            raise ServeRequestError(response)
        return response

    def _readline(self) -> bytes:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            chunk = self._sock.recv(65536)
            if not chunk:
                return b""
            self._buffer.extend(chunk)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- convenience wrappers ----------------------------------------------------

    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def open_session(
        self,
        scenario: str,
        policy: str = "task-eft",
        seed: int | None = None,
        oracle: bool | None = None,
        max_events: int | None = None,
    ) -> dict[str, Any]:
        fields: dict[str, Any] = {"scenario": scenario, "policy": policy}
        if seed is not None:
            fields["seed"] = seed
        if oracle is not None:
            fields["oracle"] = oracle
        if max_events is not None:
            fields["max_events"] = max_events
        return self.request("open", **fields)

    def event(self, session: str) -> dict[str, Any]:
        return self.request("event", session=session)

    def report(self, session: str, include_timing: bool = False) -> dict[str, Any]:
        return self.request("report", session=session, include_timing=include_timing)

    def close_session(self, session: str) -> dict[str, Any]:
        return self.request("close", session=session)

    def evaluate(
        self,
        scenario: str,
        placements: Sequence[Sequence[int]],
        seed: int | None = None,
        graph: int = 0,
    ) -> list[float]:
        fields: dict[str, Any] = {
            "scenario": scenario,
            "placements": [list(map(_plain, p)) for p in placements],
            "graph": graph,
        }
        if seed is not None:
            fields["seed"] = seed
        return list(self.request("evaluate", **fields)["values"])

    def stats(self) -> dict[str, Any]:
        return self.request("stats")
