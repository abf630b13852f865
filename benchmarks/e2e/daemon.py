"""A real ``repro serve`` daemon for the serve workloads, and its client.

Run as a module (``python -m benchmarks.e2e.daemon --socket PATH``) this
file is the benchmark-owned launcher: it runs the shipped
``repro serve`` command unchanged, and with ``--spans-out`` first
installs the layer wrappers of :mod:`benchmarks.e2e.trace` inside the
daemon process and dumps the recorded spans when the daemon has drained.

Imported, it provides :class:`Daemon` (boot, address, measure and stop
that subprocess), :class:`InProcessDaemon` (the same server on threads
of the calling process, for the smoke test) and :class:`Connection`, a
minimal JSON-lines client.  The client deliberately does not use
``repro.serve.protocol``: a change to the program's codec must show up
as daemon time, not move the load generator as well.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import socket
import subprocess
import sys
import time

__all__ = ["Connection", "Daemon", "InProcessDaemon", "peak_rss_mb"]

ROOT = pathlib.Path(__file__).resolve().parents[2]
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Connection:
    """One blocking JSON-lines connection to the daemon."""

    def __init__(self, socket_path: str, timeout_s: float = 60.0) -> None:
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout_s)
        self._sock.connect(socket_path)
        self._buffer = bytearray()

    def send(self, message: dict) -> None:
        self._sock.sendall((json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8"))

    def receive(self) -> dict:
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return json.loads(line)
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("daemon closed the connection mid-request")
            self._buffer.extend(chunk)

    def request(self, message: dict) -> dict:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        self._sock.close()


class Daemon:
    """A ``repro serve`` subprocess on a socket inside the checkout.

    Paths are relative to the checkout root (the process's working
    directory) so the ``AF_UNIX`` path stays under its ~100-char limit
    however deep the checkout sits.
    """

    def __init__(self, traced: bool = False) -> None:
        self.workdir = pathlib.Path("runs") / "e2e" / f"{os.getpid()}-{time.monotonic_ns()}"
        self.workdir.mkdir(parents=True)
        self.socket_path = str(self.workdir / "d.sock")
        self.spans_path = self.workdir / "spans.json" if traced else None
        command = [
            sys.executable, "-m", "benchmarks.e2e.daemon",
            "--socket", self.socket_path,
            "--telemetry-log", str(self.workdir / "telemetry.jsonl"),
        ]
        if self.spans_path is not None:
            command += ["--spans-out", str(self.spans_path)]
        env = dict(os.environ)
        env.pop("REPRO_TELEMETRY", None)  # the shipped default, whatever the caller set
        env["REPRO_LOG"] = "quiet"
        began = time.perf_counter()
        self._process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)
        try:
            self._control = self._connect_when_up()
            self._control.request({"op": "ping"})
        except BaseException:
            self.stop()
            raise
        #: Process launch to first ping reply: interpreter start, imports,
        #: policy construction, bind.  I/O-bound, so reported raw.
        self.boot_ms = (time.perf_counter() - began) * 1000.0

    def _connect_when_up(self) -> Connection:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while True:
            try:
                return Connection(self.socket_path)
            except OSError:
                if self._process.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with code {self._process.returncode} during boot"
                    ) from None
                if time.monotonic() > deadline:
                    raise RuntimeError("daemon did not come up") from None
                time.sleep(0.01)

    def connect(self) -> Connection:
        return Connection(self.socket_path)

    def stats(self) -> dict:
        """The daemon's ``stats`` op (request/batch counters, handle latency)."""
        return self._control.request({"op": "stats"})

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self._process.pid)

    def stop(self) -> list[dict]:
        """Shut the daemon down, wait for it to end, and return the spans
        it dumped (empty when untraced).  Removes its working directory."""
        try:
            if self._process.poll() is None:
                try:
                    self._control.request({"op": "shutdown"})
                    self._control.close()
                except (OSError, AttributeError):
                    self._process.terminate()
                try:
                    self._process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self._process.kill()
                    self._process.wait()
            if self.spans_path is not None and self.spans_path.exists():
                return json.loads(self.spans_path.read_text())
            return []
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)


class InProcessDaemon:
    """The same server on threads of this process (smoke test only:
    no boot cost, no second process, spans land in the caller's tracer)."""

    boot_ms = 0.0

    def __init__(self, socket_path: str) -> None:
        from repro.serve.server import PlacementServer, ServeConfig

        self.socket_path = socket_path
        self._server = PlacementServer(ServeConfig(socket_path=socket_path)).start()

    def connect(self) -> Connection:
        return Connection(self.socket_path)

    def stats(self) -> dict:
        conn = self.connect()
        try:
            return conn.request({"op": "stats"})
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def stop(self) -> list[dict]:
        self._server.stop()
        return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--telemetry-log", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans_out:
        from .trace import Tracer, install_wrappers

        tracer = Tracer()
        install_wrappers(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--socket", args.socket, "--trace-log", args.telemetry_log])
    if tracer is not None:
        pathlib.Path(args.spans_out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
