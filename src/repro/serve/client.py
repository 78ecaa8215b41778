"""Typed synchronous client for the placement-query server.

Stdlib-only (``http.client``); one :class:`ServeClient` wraps one
``host:port`` and exposes a method per request kind, returning the
server's decoded JSON payload.  Non-2xx responses raise
:class:`~repro.errors.ServeClientError` with the HTTP status attached
(429/503 responses additionally mark themselves retryable and carry the
server's ``Retry-After`` hint), and transport failures raise the same
error with ``status=None`` — callers handle exactly one exception type.

Retry is **opt-in**: with ``retries > 0`` the client re-sends a request
after a retryable failure (transport error, 429, 503), sleeping the
server's ``Retry-After`` hint when one was sent and otherwise an
exponentially growing, jittered backoff.  The jitter RNG is seeded and
the sleeper injectable, so tests can assert the exact backoff schedule
without waiting for it.

The client is deliberately synchronous: benchmark and CI drivers spread
instances across threads to generate concurrency, while the server
stays a single asyncio loop.

Connections are **reused** (HTTP keep-alive): one client holds one TCP
connection open across requests and only reconnects when the server
closes it or a transport error surfaces.  At high concurrency this is
the difference between measuring the serving plane and measuring TCP
handshakes.  A request that fails on a *reused* connection is silently
retried once on a fresh connection — the failure mode is almost always
a keep-alive connection the server closed while idle, and every request
kind the server exposes is a pure read.  Connections are **per thread**
(thread-local), so one client instance can be shared across a thread
pool — each thread keeps its own connection and reply framing never
interleaves.
"""

from __future__ import annotations

import json
import random
import threading
import time
from http.client import HTTPConnection, HTTPException
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs
from ..errors import ServeClientError, ServeRequestError
from ..graphs import NodeId
from .engine import encode_site
from .server import DIGEST_HEADER


class ServeClient:
    """HTTP client for one :class:`~repro.serve.server.PlacementServer`.

    Parameters
    ----------
    host, port:
        The server address.
    timeout:
        Socket timeout in seconds for each request attempt.
    retries:
        Extra attempts after a retryable failure (0 = fail fast, the
        default).  Only transport errors and 429/503 responses are
        retried — statuses that mean the server did *not* process the
        request — so retrying is safe even for non-idempotent kinds.
    backoff, backoff_cap:
        Exponential backoff base and ceiling in seconds: attempt ``i``
        sleeps ``min(cap, backoff * 2**i)`` (before jitter), unless the
        server sent a ``Retry-After`` hint, which is honored verbatim.
    jitter:
        Fraction of each backoff randomized away (0 = deterministic
        full backoff, 0.5 = sleep 50-100% of it) to de-synchronize
        retrying clients.
    retry_seed:
        Seed for the jitter RNG (seeded so overload tests replay).
    sleep:
        Injected sleeper (defaults to ``time.sleep``); tests pass a
        recorder to assert the schedule without real waiting.
    digest:
        Scenario digest to address when the server is a multi-shard
        fleet front: every request carries it in the
        ``X-Rapflow-Digest`` header and the front routes to that
        shard's worker group.  ``None`` (the default) hits the front's
        default shard; single-artifact servers ignore the header.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        retries: int = 0,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        jitter: float = 0.5,
        retry_seed: int = 0,
        sleep: Optional[Callable[[float], None]] = None,
        digest: Optional[str] = None,
    ) -> None:
        if retries < 0:
            raise ServeRequestError(f"retries must be >= 0, got {retries}")
        if not (0.0 <= jitter <= 1.0):
            raise ServeRequestError(
                f"jitter must be in [0, 1], got {jitter}"
            )
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._jitter = jitter
        self._rng = random.Random(retry_seed)
        self._sleep = sleep if sleep is not None else time.sleep
        self._digest = digest
        self._local = threading.local()
        self._connections: List[HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Drop every kept-alive connection (idempotent, all threads)."""
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local.connection = None

    def _drop_connection(self) -> None:
        """Drop the calling thread's kept-alive connection."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        self._local.connection = None
        connection.close()
        with self._connections_lock:
            if connection in self._connections:
                self._connections.remove(connection)

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Dict[str, object]:
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServeClientError as error:
                if attempt >= self._retries or not error.retryable:
                    raise
                self._sleep(self._retry_delay(attempt, error.retry_after))
                obs.count("serve.client.retries")
                attempt += 1

    def _retry_delay(
        self, attempt: int, retry_after: Optional[float]
    ) -> float:
        """Sleep before retry ``attempt``: server hint, else backoff+jitter."""
        if retry_after is not None and retry_after >= 0:
            return retry_after
        delay = min(self._backoff_cap, self._backoff * (2.0 ** attempt))
        if self._jitter:
            delay *= (1.0 - self._jitter) + self._jitter * self._rng.random()
        return delay

    def _request_once(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Dict[str, object]:
        payload = json.dumps(body).encode("utf-8") if body else None
        headers = {"Content-Type": "application/json"} if payload else {}
        if self._digest is not None:
            headers[DIGEST_HEADER] = self._digest
        reused = getattr(self._local, "connection", None) is not None
        retry_after: Optional[float] = None
        try:
            try:
                response = self._exchange(method, path, payload, headers)
            except (OSError, HTTPException):
                if not reused:
                    raise
                # A reused keep-alive connection the server has since
                # closed: reconnect and re-send once.  Every request
                # kind is a pure read, so the re-send cannot double any
                # effect.
                self._drop_connection()
                obs.count("serve.client.reconnects")
                response = self._exchange(method, path, payload, headers)
            raw = response.read()
            status = response.status
            hint = response.getheader("Retry-After")
            if hint is not None:
                try:
                    retry_after = float(hint)
                except ValueError:
                    retry_after = None
            if response.will_close:
                self._drop_connection()
        except (OSError, HTTPException) as error:
            self._drop_connection()
            raise ServeClientError(
                f"cannot reach {self._host}:{self._port}: {error}"
            ) from error
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._drop_connection()
            raise ServeClientError(
                f"server returned invalid JSON (status {status}): {error}",
                status=status,
            ) from None
        if status >= 300:
            message = (
                decoded.get("error", raw.decode("utf-8", "replace"))
                if isinstance(decoded, dict)
                else raw.decode("utf-8", "replace")
            )
            raise ServeClientError(
                f"HTTP {status}: {message}",
                status=status,
                retry_after=retry_after,
            )
        if not isinstance(decoded, dict):
            raise ServeClientError(
                f"server returned a non-object payload: {decoded!r}",
                status=status,
            )
        return decoded

    def _exchange(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        headers: Dict[str, str],
    ):
        """Send one request on this thread's kept-alive connection;
        returns the (unread) response."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = HTTPConnection(
                self._host, self._port, timeout=self._timeout
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        connection.request(method, path, body=payload, headers=headers)
        return connection.getresponse()

    # ------------------------------------------------------------------
    # typed queries
    # ------------------------------------------------------------------
    def query(self, request: Dict[str, object]) -> Dict[str, object]:
        """Send a raw request dict to ``POST /query``."""
        return self._request("POST", "/query", request)

    def healthz(self) -> Dict[str, object]:
        """The server's health document (``GET /healthz``)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, object]:
        """The metrics document (``GET /metrics``): histograms + counters."""
        return self._request("GET", "/metrics")

    def place(
        self,
        k: int,
        algorithm: str = "composite-greedy",
        utility: Optional[dict] = None,
        seed: Optional[int] = None,
    ) -> Dict[str, object]:
        """Run a placement algorithm server-side."""
        request: Dict[str, object] = {
            "kind": "place",
            "algorithm": algorithm,
            "k": k,
        }
        if utility is not None:
            request["utility"] = utility
        if seed is not None:
            request["seed"] = seed
        return self.query(request)

    def evaluate(
        self,
        placements: Sequence[Sequence[NodeId]],
        utility: Optional[dict] = None,
    ) -> List[float]:
        """Score placements; returns attracted-customer totals in order."""
        request: Dict[str, object] = {
            "kind": "evaluate",
            "placements": [
                [encode_site(site) for site in placement]
                for placement in placements
            ],
        }
        if utility is not None:
            request["utility"] = utility
        response = self.query(request)
        totals = response.get("totals")
        if not isinstance(totals, list):
            raise ServeClientError(
                f"evaluate response has no totals: {response!r}"
            )
        return [float(total) for total in totals]

    def what_if(
        self,
        placement: Sequence[NodeId],
        add: Optional[NodeId] = None,
        remove: Optional[NodeId] = None,
        utility: Optional[dict] = None,
    ) -> Dict[str, object]:
        """Marginal effect of one add/remove on a placement."""
        request: Dict[str, object] = {
            "kind": "what_if",
            "placement": [encode_site(site) for site in placement],
        }
        if add is not None:
            request["add"] = encode_site(add)
        if remove is not None:
            request["remove"] = encode_site(remove)
        if utility is not None:
            request["utility"] = utility
        return self.query(request)

    def top_gains(
        self,
        placement: Sequence[NodeId] = (),
        limit: int = 10,
        utility: Optional[dict] = None,
    ) -> Dict[str, object]:
        """Best next intersections given a committed placement."""
        request: Dict[str, object] = {
            "kind": "top_gains",
            "placement": [encode_site(site) for site in placement],
            "limit": limit,
        }
        if utility is not None:
            request["utility"] = utility
        return self.query(request)


__all__ = ["ServeClient"]
