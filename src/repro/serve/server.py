"""The ``repro serve`` daemon: warm placement sessions over a local socket.

:class:`PlacementServer` listens on an ``AF_UNIX`` stream socket and
speaks the JSON-lines protocol of :mod:`repro.serve.protocol`.  It pays
the batch stack's startup cost once — policies are constructed (and a
trained agent loaded) at boot, scenario materializations are cached
across tenants, and every open :class:`PlacementSession` keeps its warm
:class:`EvaluatorPool` between requests — so a placement request costs
one event's work, not one process launch.

Concurrency model: one accept thread plus one thread per connection.
Steps and reports of every session serialize on one lock.  A step
holds the GIL but for brief NumPy calls, so two at once only convoy:
a request on two connections cost 4.88 ms against 3.61 ms on one
with a lock per session, and 4.18 against 3.94 ms with one lock.
``open``, the codec and ``evaluate`` run outside it.  ``evaluate``
requests from any connection funnel through one
:class:`RequestBatcher` drain thread, which both coalesces them into
``evaluate_many`` batches (held under the step lock, they would stop
coalescing) and keeps the shared evaluator caches single-threaded.

Telemetry: every request runs under a ``serve.request`` span with the
op nested beneath it (``serve.event``, ``serve.search`` around policy
search, ``serve.batch`` in the batcher) — with the thread-local span
paths of :mod:`repro.telemetry.spans`, ``repro trace`` on a serve run
log groups each request's work under its own ``serve.request`` node.
Request latency lands in the ``serve.latency_ms`` registry histograms
(overall and per-op).

Shutdown: ``request_stop()`` (SIGTERM/SIGINT via
:func:`install_signal_handlers`, or the ``shutdown`` op) stops the
accept loop, lets every connection finish the request it is processing,
drains the batcher, and returns from :meth:`serve_forever` — the CLI
then flushes the telemetry run log and exits 0.
"""

from __future__ import annotations

import os
import pathlib
import signal
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain
from typing import Any, Callable, Mapping

from ..baselines.base import SearchPolicy
from ..core.placement import PlacementProblem
from ..runtime.evaluator import EvaluatorPool
from ..scenarios.events import MaterializedScenario, materialize
from ..scenarios.registry import DEFAULT_REGISTRY, ScenarioRegistry
from ..telemetry import log, metrics, span
from .batcher import RequestBatcher
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
)
from .session import EPISODE_MULTIPLIER, PlacementSession

__all__ = [
    "PlacementServer",
    "ServeConfig",
    "ServeError",
    "default_policy_factories",
    "install_signal_handlers",
]

_ACCEPT_TIMEOUT_S = 0.2  # socket timeout: how often idle loops re-check for a stop
_DRAIN_TIMEOUT_S = 30.0  # shutdown's budget for in-flight requests to finish
# Entries per (scenario, seed) cache, as EvaluatorPool's ``max_problems``:
# an evicted entry costs a deterministic rebuild, never a refused request.
CACHE_ENTRIES = 128


class ServeError(RuntimeError):
    """A request the server cannot satisfy (shipped as an error response)."""


def _field(request: dict[str, Any], name: str, kind: type, default: Any) -> Any:
    """``request[name]`` (``default`` if absent), refused unless a JSON ``kind``:
    an ``int`` field takes no bool or float, so nothing sent is coerced."""
    if name not in request:
        return default
    value = request[name]
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ServeError(f"{name} must be {'an int' if kind is int else 'a bool'}, not {value!r}")
    return value


def _lru(cache: OrderedDict, key: Any, value: Any = None) -> Any:
    """``cache[key]`` made most recent, or ``value`` stored under ``key``
    (None if not given) at the cost of the least recent entry past
    ``CACHE_ENTRIES``."""
    if key in cache:
        cache.move_to_end(key)
    elif value is not None:
        cache[key] = value
        if len(cache) > CACHE_ENTRIES:
            cache.popitem(last=False)
    return cache.get(key)


def default_policy_factories(
    agent_path: str | os.PathLike | None = None,
    seed: int = 0,
) -> dict[str, Callable[[], SearchPolicy]]:
    """Policy constructors the daemon serves, keyed by request name.

    Also the ``repro scenario run`` policy table.  With ``agent_path``
    a trained GiPH agent is loaded **once** at boot and shared read-only
    by every ``giph`` session (sessions get fresh search wrappers around
    the warm weights).  ``seed`` is the daemon's root seed (the
    ``repro serve --seed`` flag); the load-time stream derives from it
    as a seed-list key so two daemons with the same seed serve
    bit-identical policies.
    """
    import numpy as np

    from ..baselines import RandomPlacementPolicy, RandomTaskEftPolicy, RnnPlacerPolicy
    from ..experiments.runner import HeftPolicy

    factories: dict[str, Callable[[], SearchPolicy]] = {
        "random": RandomPlacementPolicy,
        "task-eft": RandomTaskEftPolicy,
        "heft": HeftPolicy,
        "rnn-placer": RnnPlacerPolicy,
    }
    if agent_path is not None:
        from ..baselines.giph_policy import GiPHSearchPolicy
        from ..core.serialization import load_agent

        agent = load_agent(pathlib.Path(agent_path), np.random.default_rng([seed]))
        factories["giph"] = lambda: GiPHSearchPolicy(agent)
    return factories


@dataclass
class ServeConfig:
    """Daemon configuration (the ``repro serve`` flags)."""

    socket_path: str
    episode_multiplier: int = EPISODE_MULTIPLIER
    batch_wait_ms: float = 2.0
    max_batch: int = 256
    oracle: bool = False  # default for opened sessions (requests may override)
    agent_path: str | None = None
    seed: int = 0  # root seed for the daemon's derived policy streams


class _LineReader:
    """Timeout-tolerant line framing over a stream socket.

    ``makefile().readline()`` can drop buffered bytes on a timeout, so
    the reader keeps its own buffer: a timeout leaves partial lines
    intact and simply returns control to the caller (which re-checks the
    server's stop flag).
    """

    __slots__ = ("_sock", "_buffer")

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buffer = bytearray()

    def readline(self) -> bytes | None:
        """One complete line, ``b""`` on EOF, ``None`` on timeout.

        Raises :class:`ProtocolError` once a line is longer than
        ``MAX_FRAME_BYTES``, newline seen or not, so a client that never
        sends one cannot grow the buffer without limit.
        """
        while True:
            newline = self._buffer.find(b"\n")
            line_bytes = newline if newline >= 0 else len(self._buffer)
            if line_bytes > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"request line exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES} bytes)"
                )
            if newline >= 0:
                line = bytes(self._buffer[: newline + 1])
                del self._buffer[: newline + 1]
                return line
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout:
                return None
            except OSError:
                return b""
            if not chunk:
                return b""  # EOF (any trailing partial line is not a message)
            self._buffer.extend(chunk)


class PlacementServer:
    """Long-lived placement daemon (see the module docstring)."""

    def __init__(
        self,
        config: ServeConfig,
        registry: ScenarioRegistry | None = None,
        policy_factories: Mapping[str, Callable[[], SearchPolicy]] | None = None,
    ) -> None:
        self.config = config
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.policy_factories = dict(
            policy_factories
            if policy_factories is not None
            else default_policy_factories(config.agent_path, seed=config.seed)
        )
        self.batcher = RequestBatcher(
            max_wait_ms=config.batch_wait_ms, max_batch=config.max_batch
        )
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conn_threads: set[threading.Thread] = set()
        self._conn_lock = threading.Lock()
        self._stop = threading.Event()
        self._stopped = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._began = time.monotonic()

        self._sessions: dict[str, PlacementSession] = {}
        self._session_counter = 0
        self._state_lock = threading.Lock()
        self._step_lock = threading.Lock()  # every session's step and report
        # (scenario, seed) -> full materialization, shared across tenants
        # so N sessions over one preset materialize it once; LRU-capped.
        self._materialized: OrderedDict[tuple[str, int], MaterializedScenario] = OrderedDict()
        # Warm scoring state for the `evaluate` op: per (scenario, seed)
        # the initial problems and their objective's evaluator pool,
        # touched only by the batcher's drain thread (see _handle_evaluate).
        self._eval_cache: OrderedDict[
            tuple[str, int], tuple[list[PlacementProblem], EvaluatorPool]
        ] = OrderedDict()

        self.requests_served = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "PlacementServer":
        """Bind the socket and start accepting connections."""
        if self._listener is not None:
            return self
        path = pathlib.Path(self.config.socket_path)
        if len(str(path)) > 100:
            raise ServeError(
                f"socket path too long for AF_UNIX ({len(str(path))} chars): {path}"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            path.unlink()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(str(path))
        listener.listen(64)
        listener.settimeout(_ACCEPT_TIMEOUT_S)
        self._listener = listener
        self._stop.clear()
        self._stopped.clear()
        self.batcher.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()
        log.info(
            f"repro serve: listening on {path} "
            f"(pid {os.getpid()}, policies: {', '.join(sorted(self.policy_factories))})"
        )
        return self

    def request_stop(self) -> None:
        """Ask the daemon to drain and stop (signal-handler safe)."""
        self._stop.set()

    def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or a handled signal); drains first."""
        self.start()
        try:
            while not self._stop.is_set():
                # Signal handlers run between bytecodes of this loop; a
                # plain wait keeps the main thread interruptible.
                self._stop.wait(0.2)
        finally:
            self._shutdown()

    def stop(self) -> None:
        """Programmatic stop: request, drain, and wait for full shutdown."""
        self.request_stop()
        if self._listener is None and self._accept_thread is None:
            return
        self._shutdown()

    def _shutdown(self) -> None:
        """Drain in-flight requests, close everything, flush the batcher.

        Idempotent and safe to race: both ``serve_forever``'s unwind and
        a programmatic ``stop`` may call it; the second caller waits for
        the first to finish and returns.
        """
        self._stop.set()
        with self._shutdown_lock:
            if self._stopped.is_set():
                return
            self._drain_and_close()

    def _drain_and_close(self) -> None:
        deadline = time.monotonic() + _DRAIN_TIMEOUT_S
        accept = self._accept_thread
        if accept is not None:
            accept.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._conn_lock:
            conns = list(self._conn_threads)
        for thread in conns:
            thread.join(timeout=max(0.05, deadline - time.monotonic()))
        self.batcher.stop()
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        try:
            pathlib.Path(self.config.socket_path).unlink(missing_ok=True)
        except OSError:
            pass
        self._accept_thread = None
        log.info(
            f"repro serve: drained and stopped after {self.requests_served} request(s)"
        )
        self._stopped.set()

    # -- accept / connection loops -----------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set() and listener is not None:
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn.settimeout(_ACCEPT_TIMEOUT_S)
            thread = threading.Thread(
                target=self._connection_loop,
                args=(conn,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._conn_lock:
                self._conn_threads.add(thread)
            thread.start()

    def _connection_loop(self, conn: socket.socket) -> None:
        reader = _LineReader(conn)
        draining = False
        opened: set[str] = set()  # sessions this connection opened and has not closed
        try:
            while True:
                try:
                    line = reader.readline()
                except ProtocolError as error:
                    # Past an oversized line the stream cannot be re-framed:
                    # answer once, then hang up (``finally`` closes).
                    log.info(f"repro serve: closing a connection: {error}")
                    try:
                        conn.sendall(encode_message(error_response("?", str(error))))
                    except OSError:
                        pass
                    return
                if line is None:  # timeout
                    if not self._stop.is_set():
                        continue
                    if draining:
                        return  # quiesced: drained every in-flight request
                    # Stop raced the reader: a request written before the
                    # signal may still be in the socket buffer (or stuck
                    # behind a missed wakeup).  Shrink the timeout and
                    # serve until a full window passes with no data.
                    draining = True
                    try:
                        conn.settimeout(0.05)
                    except OSError:
                        return
                    continue
                if not line:  # EOF
                    return
                if not line.strip():
                    continue
                response = self._serve_request(line)
                if response["ok"] and response["op"] == "open":
                    opened.add(response["session"])
                elif response["ok"] and response["op"] == "close":
                    opened.discard(response["session"])
                try:
                    conn.sendall(encode_message(response))
                except OSError:
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass
            # A session ends with its connection, closed or dropped.
            with self._state_lock:
                for session_id in opened:
                    self._sessions.pop(session_id, None)
            with self._conn_lock:
                self._conn_threads.discard(threading.current_thread())

    # -- dispatch ----------------------------------------------------------------

    def _serve_request(self, line: bytes) -> dict[str, Any]:
        began = time.perf_counter()
        op = "?"
        request = None
        try:
            request = decode_message(line)
            op = str(request.get("op", ""))
            with span("serve.request"):
                with span(f"serve.{op}"):
                    response = self._dispatch(op, request)
        except (ProtocolError, ServeError, KeyError, TypeError, ValueError, TimeoutError) as error:
            detail = error.args[0] if error.args else str(error)
            response = error_response(op, str(detail), request)
        except Exception as error:  # noqa: BLE001 - daemon must not die on a request
            log.info(f"repro serve: internal error on {op!r}: {error!r}")
            response = error_response(op, f"internal error: {error!r}", request)
        elapsed_ms = (time.perf_counter() - began) * 1000.0
        metrics().histogram("serve.latency_ms").observe(elapsed_ms)
        if op in ("open", "event", "report", "evaluate"):
            metrics().histogram(f"serve.latency_ms.{op}").observe(elapsed_ms)
        self.requests_served += 1
        return response

    def _dispatch(self, op: str, request: dict[str, Any]) -> dict[str, Any]:
        if op == "ping":
            return ok_response(
                "ping",
                request,
                pid=os.getpid(),
                uptime_s=time.monotonic() - self._began,
                protocol=PROTOCOL_VERSION,
            )
        if op == "open":
            return self._handle_open(request)
        if op == "event":
            return self._handle_event(request)
        if op == "report":
            return self._handle_report(request)
        if op == "close":
            return self._handle_close(request)
        if op == "evaluate":
            return self._handle_evaluate(request)
        if op == "stats":
            return self._handle_stats(request)
        if op == "shutdown":
            self.request_stop()
            return ok_response("shutdown", request, stopping=True)
        raise ServeError(f"unknown op {op!r}")

    # -- op handlers -------------------------------------------------------------

    def _materialize(self, scenario: str, seed: int | None, max_events: Any = None):
        spec = self.registry.get(scenario, seed=seed)
        key = (spec.name, spec.seed)
        with self._state_lock:
            cached = _lru(self._materialized, key)
        if cached is None:
            mat = materialize(spec)
            with self._state_lock:
                # Keep the first materialization if a concurrent open won
                # the race: sessions sharing one object share problem identity.
                cached = _lru(self._materialized, key, mat)
        if max_events is None:
            return cached
        try:
            return cached.head(max_events)
        except ValueError as error:
            raise ServeError(str(error)) from None

    def _handle_open(self, request: dict[str, Any]) -> dict[str, Any]:
        scenario = request.get("scenario")
        if not scenario:
            raise ServeError("open needs a 'scenario' preset name")
        policy_name = str(request.get("policy", "task-eft"))
        factory = self.policy_factories.get(policy_name)
        if factory is None:
            raise ServeError(
                f"unknown policy {policy_name!r} "
                f"(serving: {', '.join(sorted(self.policy_factories))})"
            )
        seed = _field(request, "seed", int, None)
        oracle = _field(request, "oracle", bool, self.config.oracle)
        episode_multiplier = _field(
            request, "episode_multiplier", int, self.config.episode_multiplier
        )
        materialized = self._materialize(str(scenario), seed, request.get("max_events"))
        session = PlacementSession(
            materialized,
            policy_name,
            factory(),
            episode_multiplier=episode_multiplier,
            oracle=oracle,
        )
        with self._state_lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter}"
            self._sessions[session_id] = session
        return ok_response(
            "open",
            request,
            session=session_id,
            scenario=materialized.spec.name,
            seed=materialized.spec.seed,
            policy=policy_name,
            events=session.num_events,
            oracle=oracle,
        )

    def _session(self, request: dict[str, Any]) -> tuple[str, PlacementSession]:
        session_id = request.get("session")
        if not session_id:
            raise ServeError("request needs a 'session' id from a prior open")
        with self._state_lock:
            session = self._sessions.get(str(session_id))
        if session is None:
            raise ServeError(f"no open session {session_id!r}")
        return str(session_id), session

    def _handle_event(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id, session = self._session(request)
        with self._step_lock:
            if not session.remaining:
                raise ServeError(
                    f"session {session_id!r} has no events left "
                    f"({session.num_events} consumed)"
                )
            with span("serve.search"):
                record = session.step()
            remaining = session.remaining
        row = {
            name: getattr(record, name) for name in record.__dataclass_fields__
        }
        return ok_response(
            "event", request, session=session_id, record=row, remaining=remaining
        )

    def _handle_report(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id, session = self._session(request)
        include_timing = bool(request.get("include_timing", False))
        with self._step_lock:
            report = session.report().as_dict(include_timing=include_timing)
            remaining = session.remaining
        return ok_response(
            "report", request, session=session_id, report=report, remaining=remaining
        )

    def _handle_close(self, request: dict[str, Any]) -> dict[str, Any]:
        session_id, _ = self._session(request)
        with self._state_lock:
            self._sessions.pop(session_id, None)
        with self._step_lock:  # let an in-flight step finish
            pass
        return ok_response("close", request, session=session_id, closed=True)

    def _handle_evaluate(self, request: dict[str, Any]) -> dict[str, Any]:
        scenario = request.get("scenario")
        if not scenario:
            raise ServeError("evaluate needs a 'scenario' preset name")
        placements = request.get("placements")
        if not isinstance(placements, list) or not placements:
            raise ServeError("evaluate needs a non-empty 'placements' list")
        # Before any lookup (true packs as a cached 1); the loop only names the culprit.
        if set(map(type, placements)) != {list} or set(map(type, chain(*placements))) - {int}:
            for p, placement in enumerate(placements):
                if not isinstance(placement, list):
                    raise ServeError(f"placement {p} must be a list of ints, not {placement!r}")
                for task, d in enumerate(placement):
                    if type(d) is not int:
                        raise ServeError(
                            f"placement {p}: task {task}: device index must be an int, not {d!r}"
                        )
        graph_index = _field(request, "graph", int, 0)
        materialized = self._materialize(str(scenario), _field(request, "seed", int, None))
        key = (materialized.spec.name, materialized.spec.seed)
        with self._state_lock:
            cached = _lru(self._eval_cache, key) or _lru(self._eval_cache, key, (
                [PlacementProblem(g, materialized.initial_network)
                 for g in materialized.initial_graphs],
                EvaluatorPool(materialized.spec.make_objective()),
            ))
            problems, pool = cached
            if not 0 <= graph_index < len(problems):
                raise ServeError(
                    f"graph index {graph_index} outside [0, {len(problems)})"
                )
            problem = problems[graph_index]
            # pool.get mutates the pool's LRU order: resolve the evaluator
            # under the state lock, then let the batcher's single drain
            # thread do all cache-mutating evaluation work.
            evaluator = pool.get(problem)
        try:
            values = self.batcher.submit_many(evaluator, placements)
        except ValueError:  # the batch's check names a task: name its placement too
            for p, placement in enumerate(placements):
                try:
                    problem.validate_placement(placement)
                except ValueError as error:
                    raise ServeError(f"placement {p}: {error}") from None
            raise
        return ok_response(
            "evaluate",
            request,
            scenario=materialized.spec.name,
            seed=materialized.spec.seed,
            graph=graph_index,
            values=values,
        )

    def _handle_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        latency = metrics().histogram("serve.latency_ms")
        with self._state_lock:
            open_sessions = len(self._sessions)
            cached = {"materialized": len(self._materialized), "evaluate": len(self._eval_cache)}
        return ok_response(
            "stats",
            request,
            requests=self.requests_served,
            open_sessions=open_sessions,
            cached=cached,
            batches=self.batcher.batches,
            batched_requests=self.batcher.requests,
            latency_ms={
                "count": latency.count,
                "mean": latency.mean,
                "min": latency.min if latency.count else 0.0,
                "max": latency.max if latency.count else 0.0,
            },
        )


def install_signal_handlers(server: PlacementServer) -> None:
    """Route SIGTERM/SIGINT to a graceful drain (main thread only)."""

    def _handle(signum, frame):  # noqa: ARG001
        log.info(f"repro serve: received signal {signum}, draining")
        server.request_stop()

    signal.signal(signal.SIGTERM, _handle)
    signal.signal(signal.SIGINT, _handle)
