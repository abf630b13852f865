"""Fault harness: a client that drops its connection leaks no session.

Two sessions are opened on a raw socket, which is then closed without a
``close`` request.  The daemon must drop both within a bounded wait,
while a session on a second, live connection keeps stepping.  Every
socket read here carries a timeout, so a daemon that never answers
fails the test instead of hanging the suite.
"""

import json
import pathlib
import socket
import tempfile
import time

import pytest

from repro.serve.client import ServeClient, ServeRequestError
from repro.serve.protocol import encode_message
from repro.serve.server import PlacementServer, ServeConfig

DEADLINE_S = 10.0


@pytest.fixture()
def socket_path():
    # AF_UNIX paths are capped near 100 chars; tmp_path can be longer.
    with tempfile.TemporaryDirectory(prefix="repro-faults-", dir="/tmp") as tmp:
        path = str(pathlib.Path(tmp) / "serve.sock")
        server = PlacementServer(ServeConfig(socket_path=path)).start()
        try:
            yield path
        finally:
            server.stop()


def _raw_open(raw_file, raw: socket.socket) -> str:
    raw.sendall(encode_message(
        {"op": "open", "scenario": "stable-cluster", "seed": 0, "oracle": False}
    ))
    response = json.loads(raw_file.readline())
    assert response["ok"], response
    return response["session"]


def test_dropped_connection_closes_its_sessions(socket_path):
    with ServeClient(socket_path, timeout_s=DEADLINE_S) as live:
        opened = live.open_session("stable-cluster", seed=0, oracle=False)
        kept = opened["session"]

        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(DEADLINE_S)
        raw.connect(socket_path)
        with raw.makefile("rb") as raw_file:
            dropped = [_raw_open(raw_file, raw), _raw_open(raw_file, raw)]
        assert live.stats()["open_sessions"] == 3
        raw.close()  # no `close` request: the client just goes away

        deadline = time.monotonic() + DEADLINE_S
        while live.stats()["open_sessions"] != 1:
            if time.monotonic() > deadline:
                pytest.fail(f"the dropped connection's sessions {dropped} still open "
                            f"{DEADLINE_S:.0f} s after it closed")
            time.sleep(0.02)
        for session in dropped:
            with pytest.raises(ServeRequestError, match="no open session"):
                live.event(session)

        # The live connection's session still steps, from where it was.
        assert live.event(kept)["remaining"] == opened["events"] - 1
        live.close_session(kept)
        assert live.stats()["open_sessions"] == 0
