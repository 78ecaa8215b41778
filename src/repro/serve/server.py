"""Embeddable JSON-over-HTTP front end for the query engine.

Stdlib-only (``asyncio`` streams + hand-rolled HTTP/1.1 framing — no
web framework), single event loop, single worker: the engine's kernel
calls run on the loop thread, so the whole serving stack inherits the
library's single-threaded determinism guarantees.

:class:`JsonService` is the service skeleton both rapflow HTTP services
share: binding, the per-connection request loop, the three-path router
with its framing, 404 and 405 answers, ``Retry-After`` on 429 and 503,
and the stop path that closes the listener, the idle client
connections and the trace segment.  :class:`PlacementServer` (a worker)
and the fleet front (:class:`~repro.serve.fleet.PlacementFleet`) supply
only their ``/healthz``, ``/metrics`` and ``/query`` answers, and
:func:`run_server` runs either.

Endpoints:

* ``POST /query`` — one engine request (see
  :data:`~repro.serve.engine.REQUEST_KINDS`), every kind answered by
  :meth:`~repro.serve.engine.QueryEngine.handle`.
* ``GET /healthz`` — liveness + request accounting, backed by
  :class:`~repro.reliability.PipelineHealth` (each admitted request is a
  recorded row; each failed one a quarantined row tagged with its error
  class), plus artifact stats and cache occupancy.
* ``GET /metrics`` — fixed-bucket ``/query`` latency histogram
  (:class:`~repro.obs.metrics.LatencyHistogram`, bounds in the payload)
  plus per-status counters; a fleet front sums worker histograms
  bucket-wise into the fleet view.

Distributed tracing is **opt-in** via ``trace_dir``: a front that sends
``X-Rapflow-Trace: <trace_id>:<parent_span_id>`` gets a
``worker.request`` span appended to this process's JSONL segment
(:func:`repro.obs.trace.request_span`); below it the engine's
``engine.handle`` span and the algorithm's ``select`` come from the
ordinary :mod:`repro.obs` hooks, with their kernel counters.  Without
a ``trace_dir`` the header is never even parsed.

Operational behavior:

* **admission control** — at most ``max_inflight`` requests in flight;
  excess requests are rejected *immediately* with HTTP 429
  (:class:`~repro.errors.ServeOverloadError`) carrying a ``Retry-After``
  hint, never queued blindly, so an overloaded server degrades by
  shedding load instead of by hanging.
* **per-request deadline** — ``timeout`` seconds via
  ``asyncio.wait_for``; expiry answers 504.  A fleet front can tighten
  one request's deadline below the server default with an
  ``X-Rapflow-Deadline: <seconds>`` header (deadline propagation —
  a worker never works longer than its caller is willing to wait).
* **graceful shutdown** — :meth:`PlacementServer.shutdown` stops
  accepting, answers new requests 503 while draining, and waits for
  in-flight requests to finish.
* **fault injection** — a :class:`~repro.reliability.FaultInjector` on
  the engine can fail (HTTP 500) or stall admitted requests.

Per-request timing uses the injected :class:`~repro.obs.Clock` and lands
in the ``/metrics`` histogram, the ``serve.http.<status>`` counter and
optional JSONL latency records.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from .. import obs
from ..devtools import sanitizer
from ..errors import (
    ReproError,
    ServeOverloadError,
    ServeRequestError,
    ServeTimeoutError,
)
from ..obs import trace as obs_trace
from ..obs.clock import Clock, SystemClock
from ..obs.metrics import LatencyHistogram
from ..reliability.health import PipelineHealth
from .engine import QueryEngine

_MAX_BODY = 8 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Header a routing front uses to tighten a worker's per-request
#: deadline (float seconds of budget remaining at the front).
DEADLINE_HEADER = "x-rapflow-deadline"

#: Header a client uses to address a specific shard (scenario digest)
#: behind a multi-shard fleet front.  Defined here (not in
#: :mod:`repro.serve.fleet`) so the client can import it without a
#: client → fleet → testing → client cycle.
DIGEST_HEADER = "x-rapflow-digest"

#: Seconds a 429 or 503 reply asks the client to wait (``Retry-After``);
#: a drain also answers idle connections 503 for this long before
#: closing them.
RETRY_AFTER = 0.05
_RETRY_HEADERS = {"Retry-After": f"{RETRY_AFTER:g}"}

#: Sentinel methods :func:`read_http_request` returns for a request whose
#: body it left unread, and the answer each gets.
_TOO_LARGE = "__TOO_LARGE__"
_BAD_LENGTH = "__BAD_LENGTH__"
_UNREAD_BODY: Dict[str, Tuple[int, str]] = {
    _TOO_LARGE: (413, f"request body exceeds {_MAX_BODY} bytes"),
    _BAD_LENGTH: (400, "Content-Length must be a non-negative integer"),
}


def split_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """The start line and header fields (names lowercased) of an HTTP head.

    Shared by :func:`read_http_request` and the fleet front's reply
    reader, so both ends of the front→worker hop split heads alike.
    """
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return lines[0], headers


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes, bool]]:
    """Read one HTTP/1.1 request off ``reader``.

    Returns ``(method, path, headers, body, keep_alive)`` with header
    names lowercased, or ``None`` on EOF/garbage (caller drops the
    connection).  A body that is oversized, or whose ``Content-Length``
    is not a non-negative integer, is left unread: it comes back with a
    sentinel method (``"__TOO_LARGE__"``, ``"__BAD_LENGTH__"``) and
    ``keep_alive`` false, and :meth:`JsonService._dispatch` answers it.
    Shared by :class:`PlacementServer` and the fleet front — one framing
    implementation, one set of framing bugs.

    The whole head (request line + headers) is read with a single
    ``readuntil`` and split in memory: at high request rates the
    line-by-line version spent more loop iterations parsing headers
    than answering queries.  CRLF framing only — every HTTP client
    emits it, and a bare-LF peer just looks like garbage.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if error.partial:  # mid-request EOF; clean close arrives empty
            obs.count("serve.conn_aborts.read")
        return None
    except asyncio.LimitOverrunError:  # head larger than the stream limit
        obs.count("serve.conn_aborts.read")
        return None
    except OSError:  # ConnectionError included: peer vanished mid-read
        obs.count("serve.conn_aborts.read")
        return None
    start, headers = split_head(head)
    parts = start.split()
    if len(parts) != 3:
        return None
    method, path, _ = parts
    raw_length = headers.get("content-length") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        # Where this body ends is unknown, so the connection cannot be
        # reused.
        return _BAD_LENGTH, path, headers, b"", False
    length = int(raw_length)
    if length > _MAX_BODY:
        # The body is unread, so the connection cannot be reused.
        return _TOO_LARGE, path, headers, b"", False
    body = await reader.readexactly(length) if length else b""
    keep_alive = headers.get("connection", "").lower() != "close"
    return method, path, headers, body, keep_alive


class IdleConnections:
    """Client connections waiting for their next request head.

    A keep-alive client may keep its connection open after its last
    request.  At drain, Python 3.12's ``Server.wait_closed`` waits for
    such a client, and on 3.11 its handler is still waiting for a head
    at loop teardown, where cancelling it logs "Exception in callback
    ... CancelledError".  :meth:`close_waiting` does what 3.13's
    ``Server.close_clients`` does for the waiting connections; later
    reads return ``None``, so a handler still answering a request closes
    its connection when it is done.  Shared by :class:`PlacementServer`
    and the fleet front.
    """

    def __init__(self) -> None:
        self._waiting: Dict[asyncio.StreamWriter, "asyncio.Task[None]"] = {}
        self._closed = False

    async def next_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes, bool]]:
        """:func:`read_http_request`, or ``None`` once :meth:`close_waiting` ran."""
        handler = asyncio.current_task()
        if self._closed or handler is None:
            return None
        self._waiting[writer] = handler
        try:
            return await read_http_request(reader)
        finally:
            del self._waiting[writer]

    async def close_waiting(self, grace: float, timeout: float = 5.0) -> None:
        """Close the waiting connections and wait for their handlers.

        When connections are waiting, they first get ``grace`` seconds
        (the drain's ``Retry-After``): a client racing the drain is
        answered 503 and told when to retry, rather than reset.
        """
        if self._waiting and grace > 0:
            await asyncio.sleep(grace)
        self._closed = True
        handlers = list(self._waiting.values())
        for writer in self._waiting:
            writer.close()
        if handlers:
            await asyncio.wait(handlers, timeout=timeout)


async def write_json_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, object],
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Serialize and send one JSON response over ``writer``."""
    body = json.dumps(payload).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()


async def close_quietly(
    writer: asyncio.StreamWriter, where: str = "serve"
) -> None:
    """Close ``writer``, tolerating a peer that already vanished.

    ``wait_closed`` raises when the transport died mid-flush; there is
    nothing left to salvage at that point, so the abort is counted
    (``<where>.close_aborts``) rather than propagated.  Shared by the
    server and the fleet front — every connection teardown goes through
    one audited path.
    """
    writer.close()
    try:
        await writer.wait_closed()
    except OSError:  # ConnectionError included: already torn down
        obs.count(f"{where}.close_aborts")


def effective_deadline(headers: Dict[str, str], default: float) -> float:
    """The per-request deadline: header-propagated budget, capped at ``default``.

    A malformed or non-positive header value falls back to the server
    default rather than erroring — deadline propagation is an
    optimization, not a correctness gate.
    """
    raw = headers.get(DEADLINE_HEADER)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    if value <= 0:
        return default
    return min(default, value)


def sanitizer_health() -> Optional[Dict[str, object]]:
    """Async-sanitizer tallies for health payloads (``None`` when off).

    Mirrors the ``lint.sanitize.async_violations`` obs counter so an
    operator curling ``/healthz`` sees slow-callback and leaked-task
    counts without a profiling run.
    """
    sanitize = sanitizer()
    report = sanitize.async_report() if sanitize is not None else None
    if report is None:
        return None
    return {
        "async_violations": report.total_violations(),
        "slow_callbacks": report.slow_callbacks,
        "leaked_tasks": report.leaked_tasks,
        "callbacks_timed": report.callbacks_timed,
        "budget": report.budget,
    }


def _garbled(response: Dict[str, object]) -> Dict[str, object]:
    """A corrupted copy of ``response`` (injected corrupt-reply fault).

    The digest is mangled — the exact field a fleet front's integrity
    check verifies against the shard's content address — and numeric
    result fields are perturbed so an unchecked consumer would read
    wrong numbers, not subtly-right ones.
    """
    corrupted: Dict[str, object] = dict(response)
    corrupted["digest"] = "corrupt-" + str(response.get("digest", ""))[:8]
    totals = corrupted.get("totals")
    if isinstance(totals, list):
        corrupted["totals"] = [float(total) + 1.0 for total in totals]
    obs.count("serve.replies.corrupted")
    return corrupted


class JsonService:
    """The skeleton of a rapflow JSON-over-HTTP service.

    It binds (:meth:`_listen`), reads each connection's requests in
    turn, routes ``GET /healthz`` to :meth:`healthz`, ``GET /metrics``
    to :meth:`metrics_doc` and ``POST /query`` to :meth:`_query`,
    answers everything else itself (a body left unread, an unknown
    path, a wrong method), puts ``Retry-After`` on every 429 and 503,
    and stops through :meth:`_stop_listening` and :meth:`_stopped`.  A
    subclass supplies the three answers and its own ``start`` and
    ``shutdown``, and may wrap :meth:`_dispatch`.
    """

    #: Prefix of the connection counters (``<prefix>.conn_aborts.<error>``,
    #: ``<prefix>.close_aborts``).
    _counter_prefix = "serve"

    def __init__(
        self,
        host: str,
        port: int,
        tracer: Optional[obs_trace.TraceRecorder],
    ) -> None:
        self._host = host
        self._requested_port = port
        self._tracer = tracer
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections = IdleConnections()
        self._draining = False

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self._host

    @property
    def port(self) -> int:
        """The bound port (valid after ``start``)."""
        if self._server is None or not self._server.sockets:
            raise ServeRequestError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Make the service ready and bind it."""
        raise NotImplementedError

    async def shutdown(self) -> None:
        """Stop the service gracefully."""
        raise NotImplementedError

    def abort(self) -> None:
        """Abrupt stop (crash simulation): close the socket, drop work.

        Unlike ``shutdown`` this does not wait for in-flight requests —
        the chaos harness uses it to make a worker die the way a
        SIGKILL'd process dies.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()

    def healthz(self) -> Dict[str, object]:
        """The ``GET /healthz`` document."""
        raise NotImplementedError

    async def metrics_doc(self) -> Dict[str, object]:
        """The ``GET /metrics`` document."""
        raise NotImplementedError

    async def _query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """The answer to one ``POST /query``."""
        raise NotImplementedError

    async def _listen(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._requested_port
        )

    async def _stop_listening(self, timeout: float) -> None:
        """Close the listener, then the connections idling between requests.

        An idle connection is answered 503 for one :data:`RETRY_AFTER`
        before it is closed.
        """
        if self._server is not None:
            self._server.close()
            await self._connections.close_waiting(RETRY_AFTER, timeout)
            await self._server.wait_closed()

    def _stopped(self, where: str) -> None:
        """Close the trace segment and check the loop for leftover tasks."""
        if self._tracer is not None:
            self._tracer.close()
        sanitize = sanitizer()
        if sanitize is not None:
            sanitize.check_loop_shutdown(where)

    def _trace_health(self) -> Dict[str, object]:
        """The ``trace`` block of ``/healthz``."""
        return {
            "enabled": self._tracer is not None,
            "degraded": self._tracer is not None and self._tracer.degraded,
        }

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                parsed = await self._connections.next_request(reader, writer)
                if parsed is None:
                    break
                method, path, headers, body, keep_alive = parsed
                status, payload = await self._dispatch(
                    method, path, headers, body
                )
                await write_json_response(
                    writer,
                    status,
                    payload,
                    keep_alive,
                    _RETRY_HEADERS if status in (429, 503) else None,
                )
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError) as error:
            obs.count(
                f"{self._counter_prefix}.conn_aborts.{type(error).__name__}"
            )
        finally:
            await close_quietly(writer, where=self._counter_prefix)

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        """Route one request to its answer."""
        unread = _UNREAD_BODY.get(method)
        if unread is not None:
            return unread[0], {"error": unread[1]}
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}
            return 200, self.healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}
            return 200, await self.metrics_doc()
        if path != "/query":
            return 404, {"error": f"unknown path {path!r}"}
        if method != "POST":
            return 405, {"error": "query is POST-only"}
        return await self._query(headers, body)


class PlacementServer(JsonService):
    """Asyncio HTTP server around one :class:`QueryEngine`.

    Parameters
    ----------
    engine:
        The (already compiled) query engine to expose.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    max_inflight:
        Admission limit — concurrent requests beyond it get HTTP 429.
    timeout:
        Per-request deadline in seconds.
    restore_info:
        Optional restore provenance surfaced verbatim under
        ``restore`` in ``/healthz`` — the shm attach path records how
        the artifact was restored (``attach`` vs ``load``), the restore
        latency, and the private-memory delta, which the fleet front
        and the bench aggregate into the copy-count proof.
    latency_log:
        Optional JSONL path; one ``{"path", "status", "duration"}``
        record per request.
    clock:
        Injected time source for request timing (RAP002: the serve
        layer never reads the wall clock directly).
    trace_dir:
        Optional directory for this worker's JSONL trace segment
        (``worker-<label>.jsonl``).  Enables distributed tracing:
        requests carrying ``X-Rapflow-Trace`` get ``worker.request``
        spans with an ``engine.handle`` child.  ``None`` (the default)
        disables tracing entirely — the header is not even parsed.
    worker_label:
        Fleet-assigned worker id (``w0``, ...) used in trace segments
        and the ``/metrics`` payload; defaults to ``"solo"`` for a
        standalone server.
    """

    def __init__(
        self,
        engine: QueryEngine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        timeout: float = 30.0,
        restore_info: Optional[Dict[str, object]] = None,
        latency_log: Optional[Union[str, Path]] = None,
        clock: Optional[Clock] = None,
        trace_dir: Optional[Union[str, Path]] = None,
        worker_label: Optional[str] = None,
    ) -> None:
        if max_inflight < 1:
            raise ServeRequestError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if timeout <= 0:
            raise ServeRequestError(f"timeout must be > 0, got {timeout}")
        self._engine = engine
        self._max_inflight = max_inflight
        self._timeout = timeout
        self._restore_info = restore_info
        self._latency_log = Path(latency_log) if latency_log else None
        self._latency_log_degraded = False
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._worker_label = worker_label if worker_label else "solo"
        tracer = None
        if trace_dir is not None:
            tracer = obs_trace.TraceRecorder(
                Path(trace_dir) / f"worker-{self._worker_label}.jsonl",
                role="worker",
                worker_id=self._worker_label,
                clock=self._clock,
            )
        super().__init__(host, port, tracer)
        self._metrics = LatencyHistogram()
        self._query_statuses: Dict[int, int] = {}
        self._inflight = 0
        # Created in start(): asyncio primitives bind the running loop
        # on construction under Python 3.9.
        self._idle: Optional[asyncio.Event] = None
        self.health = PipelineHealth(source="serve")
        self.rejected = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        """Whether the server is refusing new work while shutting down."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently admitted and not yet answered."""
        return self._inflight

    async def start(self) -> None:
        """Bind and start accepting connections."""
        sanitize = sanitizer()
        if sanitize is not None:
            sanitize.install_async_if_enabled()
        self._idle = asyncio.Event()
        self._idle.set()
        await self._listen()

    async def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Graceful stop: refuse new work, drain in-flight, close.

        New requests arriving during the drain are answered 503, and
        in-flight ones finish rather than being abandoned.  Once they
        have, connections idling between requests are closed, after one
        :data:`RETRY_AFTER` in which they are still answered 503.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._idle is not None:
            try:
                await asyncio.wait_for(self._idle.wait(), drain_timeout)
            except asyncio.TimeoutError:
                obs.count("serve.drain_timeouts")
        await self._stop_listening(drain_timeout)
        self._stopped("server.shutdown")

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        # Parse the trace header only when this worker records traces —
        # the disabled hot path adds a single attribute check.
        trace = None
        if self._tracer is not None:
            raw_trace = headers.get(obs_trace.TRACE_HEADER)
            if raw_trace is not None:
                trace = obs_trace.parse_trace_header(raw_trace)
        t_start = self._clock.now()
        with obs_trace.request_span(
            self._tracer, trace, "worker.request"
        ) as span:
            status, payload = await super()._dispatch(
                method, path, headers, body
            )
            if span is not None:
                span.attrs.update(
                    path=path,
                    status=status,
                    digest=self._engine.artifact.digest[:12],
                )
        duration = self._clock.now() - t_start
        obs.count(f"serve.http.{status}")
        if path == "/query":
            self._metrics.observe(duration)
            self._query_statuses[status] = (
                self._query_statuses.get(status, 0) + 1
            )
        self._log_latency(path, status, duration)
        return status, payload

    def _log_latency(self, path: str, status: int, duration: float) -> None:
        if self._latency_log is None:
            return
        try:
            with open(self._latency_log, "a") as handle:
                handle.write(
                    json.dumps(
                        {
                            "path": path,
                            "status": status,
                            "duration": duration,
                        }
                    )
                    + "\n"
                )
        except OSError:
            self._latency_log = None  # degrade: stop logging, keep serving
            self._latency_log_degraded = True  # ... but say so in /healthz
            obs.count("serve.latency_log_errors")

    async def _query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if self._draining:
            self.rejected += 1
            return 503, {"error": "server is draining", "retryable": True}
        if self._inflight >= self._max_inflight:
            self.rejected += 1
            obs.count("serve.rejected.overload")
            error = ServeOverloadError(
                f"admission queue full ({self._max_inflight} in flight)"
            )
            return 429, {"error": str(error), "retryable": True}
        deadline = effective_deadline(headers, self._timeout)
        self._inflight += 1
        self._idle.clear()
        try:
            return await asyncio.wait_for(
                self._answer_query(body), deadline
            )
        except asyncio.TimeoutError:
            timeout_error = ServeTimeoutError(
                f"request exceeded the {deadline:g}s deadline"
            )
            return 504, {"error": str(timeout_error), "retryable": True}
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _answer_query(
        self, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"request body is not valid JSON: {error}"}
        try:
            delay = self._engine.check_fault()
            corrupt = self._engine.corrupt_reply()
            if delay > 0:
                await asyncio.sleep(delay)
            # Single-worker design: the kernel deliberately runs on the
            # loop thread (see the module docstring).
            response = self._engine.handle(request)  # rapflow: noqa[RAP006] kernel-on-loop by design
        except ServeRequestError as error:
            self.health.quarantine_row(0, "bad-request", str(error))
            return 400, {"error": str(error)}
        except ReproError as error:
            self.health.quarantine_row(0, type(error).__name__, str(error))
            return 500, {"error": str(error)}
        self.health.record_row()
        if corrupt:
            return 200, _garbled(response)
        return 200, response

    # ------------------------------------------------------------------
    # health + metrics
    # ------------------------------------------------------------------
    def _latency_log_status(self) -> str:
        """``ok`` / ``disabled`` / ``degraded`` (write failed, log dead)."""
        if self._latency_log_degraded:
            return "degraded"
        return "ok" if self._latency_log is not None else "disabled"

    def healthz(self) -> Dict[str, object]:
        """The worker health document (also ``GET /healthz``)."""
        return {
            "status": "draining" if self._draining else "ok",
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "rejected": self.rejected,
            "digest": self._engine.artifact.digest,
            "artifact": dict(self._engine.artifact.stats),
            "cache": self._engine.cache_info(),
            "restore": self._restore_info,
            "latency_log": self._latency_log_status(),
            "trace": self._trace_health(),
            "pipeline": self.health.to_dict(),
            "sanitizer": sanitizer_health(),
        }

    async def metrics_doc(self) -> Dict[str, object]:
        """The ``GET /metrics`` payload: histogram + counters.

        The histogram covers ``/query`` requests only (health probes
        would otherwise drown the percentiles in sub-millisecond
        samples) and carries its bucket bounds, so the fleet front can
        sum worker histograms bucket-wise without negotiation.
        """
        shm_attached = (
            1
            if (self._restore_info or {}).get("mode") == "shm-attach"
            else 0
        )
        return {
            "schema": "rapflow-metrics/1",
            "role": "worker",
            "worker": self._worker_label,
            "digest": self._engine.artifact.digest,
            "latency": self._metrics.to_dict(),
            "counters": {
                "served": self._query_statuses.get(200, 0),
                "rejected": self.rejected,
                "shm_attached": shm_attached,
                "statuses": {
                    str(status): count
                    for status, count in sorted(
                        self._query_statuses.items()
                    )
                },
            },
            "latency_log": self._latency_log_status(),
        }


async def run_server(
    service: JsonService,
    ready_file: Optional[Union[str, Path]] = None,
    serve_seconds: Optional[float] = None,
) -> None:
    """Start ``service``, optionally announce readiness, run, drain.

    ``service`` is a :class:`PlacementServer` or a fleet front
    (:class:`~repro.serve.fleet.PlacementFleet`).  ``ready_file``
    (written after binding, containing ``host port``) lets test
    harnesses and CI smoke jobs wait for the ephemeral port without
    polling; ``serve_seconds`` bounds the run (graceful drain at
    expiry) so scripted runs terminate deterministically.  SIGTERM and
    SIGINT both trigger the same graceful drain.
    """
    await service.start()
    loop = asyncio.get_running_loop()
    if ready_file is not None:
        address = f"{service.host} {service.port}\n"
        await loop.run_in_executor(None, Path(ready_file).write_text, address)
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platform without loop signal support
    try:
        if serve_seconds is not None:
            try:
                await asyncio.wait_for(stop.wait(), serve_seconds)
            except asyncio.TimeoutError:
                pass
        else:
            await stop.wait()
    finally:
        await service.shutdown()


__all__ = [
    "DEADLINE_HEADER",
    "DIGEST_HEADER",
    "IdleConnections",
    "JsonService",
    "PlacementServer",
    "RETRY_AFTER",
    "close_quietly",
    "effective_deadline",
    "read_http_request",
    "run_server",
    "sanitizer_health",
    "split_head",
    "write_json_response",
]
