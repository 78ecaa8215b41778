"""Client retry behavior, keep-alive reuse, and thread safety.

Retry is opt-in (``retries=0`` fails fast), the sleeper is injected so
tests assert the exact backoff schedule without waiting for it, and a
scripted stdlib HTTP stub plays the server so each test controls the
status sequence precisely.  Keep-alive tests run against an HTTP/1.1
stub that counts connections server-side — connection reuse is observed
from the server's accept log, not inferred from client internals.
"""

import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.errors import ServeClientError, ServeRequestError
from repro.serve import ServeClient


class _ScriptedServer:
    """Serve a fixed sequence of (status, headers, payload) responses."""

    def __init__(self, script):
        self.script = list(script)
        self.hits = 0
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def _respond(self):
                with lock:
                    step = min(outer.hits, len(outer.script) - 1)
                    status, headers, payload = outer.script[step]
                    outer.hits += 1
                body = json.dumps(payload).encode("utf-8")
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(body)

            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                self._respond()

            do_GET = _respond

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10.0)


def recording_client(port, sleeps, **kwargs):
    kwargs.setdefault("retries", 2)
    kwargs.setdefault("jitter", 0.0)
    return ServeClient(
        "127.0.0.1", port, timeout=5.0, sleep=sleeps.append, **kwargs
    )


class _KeepAliveServer:
    """HTTP/1.1 stub that counts connections and requests.

    ``drop_after`` closes each connection after that many responses
    *without* advertising ``Connection: close`` — the silent idle-close
    a real server performs, which the client must absorb by
    reconnecting and re-sending.
    """

    def __init__(self, drop_after=None):
        self.connections = 0
        self.requests = 0
        lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 10.0

            def setup(self):
                super().setup()
                with lock:
                    outer.connections += 1

            def _respond(self):
                length = int(self.headers.get("Content-Length", 0))
                if length:
                    self.rfile.read(length)
                with lock:
                    outer.requests += 1
                    served_here = getattr(self, "_served", 0) + 1
                    self._served = served_here
                body = json.dumps({"totals": [21.0]}).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                if drop_after is not None and served_here >= drop_after:
                    self.close_connection = True

            do_POST = _respond
            do_GET = _respond

            def log_message(self, *args):
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10.0)


class TestKeepAlive:
    def test_sequential_requests_share_one_connection(self):
        with _KeepAliveServer() as stub:
            with ServeClient("127.0.0.1", stub.port, timeout=5.0) as client:
                for _ in range(5):
                    assert client.evaluate([["V3", "V5"]]) == [21.0]
            assert stub.requests == 5
            assert stub.connections == 1

    def test_silent_server_close_is_absorbed(self):
        # Every connection dies after one response with no warning
        # header: each follow-up request hits a dead kept-alive socket
        # and must transparently reconnect and re-send.
        with _KeepAliveServer(drop_after=1) as stub:
            with ServeClient("127.0.0.1", stub.port, timeout=5.0) as client:
                for _ in range(4):
                    assert client.evaluate([["V3", "V5"]]) == [21.0]
            assert stub.requests == 4
            assert stub.connections == 4

    def test_shared_client_gives_each_thread_its_own_connection(self):
        # One client across a thread pool: reply framing must never
        # interleave, which thread-local connections guarantee.
        threads, rounds = 4, 8
        with _KeepAliveServer() as stub:
            client = ServeClient("127.0.0.1", stub.port, timeout=10.0)

            def hammer(_):
                return [
                    client.evaluate([["V3", "V5"]]) for _ in range(rounds)
                ]

            with ThreadPoolExecutor(max_workers=threads) as executor:
                outcomes = list(executor.map(hammer, range(threads)))
            for outcome in outcomes:
                assert outcome == [[21.0]] * rounds
            assert stub.requests == threads * rounds
            # One connection per pool thread, never one per request.
            assert 1 <= stub.connections <= threads
            assert len(client._connections) == stub.connections
            client.close()
            assert client._connections == []

    def test_close_is_idempotent(self):
        with _KeepAliveServer() as stub:
            client = ServeClient("127.0.0.1", stub.port, timeout=5.0)
            assert client.healthz() == {"totals": [21.0]}
            client.close()
            client.close()
            # A closed client reconnects on next use rather than dying.
            assert client.healthz() == {"totals": [21.0]}
            client.close()
            assert stub.connections == 2


@pytest.fixture
def refused_port():
    """A port bound without ``listen()``: every connect is refused at once.

    A server that listens but never accepts would not do: connects land
    in its backlog, and each attempt waits out the client's timeout.
    """
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield sock.getsockname()[1]


class TestRetrySchedule:
    def test_transport_errors_follow_exponential_backoff(self, refused_port):
        sleeps = []
        # Every attempt is a transport error.
        client = recording_client(
            refused_port, sleeps, retries=3, backoff=0.1, backoff_cap=10.0
        )
        with pytest.raises(ServeClientError) as info:
            client.healthz()
        assert info.value.status is None
        assert sleeps == [0.1, 0.2, 0.4]

    def test_backoff_is_capped(self, refused_port):
        sleeps = []
        client = recording_client(
            refused_port, sleeps, retries=4, backoff=0.1, backoff_cap=0.25
        )
        with pytest.raises(ServeClientError):
            client.healthz()
        assert sleeps == [0.1, 0.2, 0.25, 0.25]

    def test_jitter_is_seeded_and_reproducible(self):
        first = ServeClient(retries=1, jitter=0.5, retry_seed=9)
        second = ServeClient(retries=1, jitter=0.5, retry_seed=9)
        assert first._retry_delay(0, None) == second._retry_delay(0, None)
        full = ServeClient(jitter=0.0)._retry_delay(3, None)
        jittered = ServeClient(jitter=0.5, retry_seed=9)._retry_delay(3, None)
        assert 0.5 * full <= jittered <= full


class TestRetryAfter:
    def test_hint_is_honored_verbatim_then_succeeds(self):
        script = [
            (503, {"Retry-After": "0.07"}, {"error": "draining",
                                            "retryable": True}),
            (429, {"Retry-After": "0.3"}, {"error": "busy",
                                           "retryable": True}),
            (200, {}, {"totals": [21.0]}),
        ]
        with _ScriptedServer(script) as stub:
            sleeps = []
            client = recording_client(stub.port, sleeps, backoff=99.0)
            assert client.evaluate([["V3", "V5"]]) == [21.0]
            assert stub.hits == 3
            # The server's hints, not the client's 99s backoff.
            assert sleeps == [0.07, 0.3]

    def test_malformed_hint_falls_back_to_backoff(self):
        script = [
            (429, {"Retry-After": "soon"}, {"error": "busy"}),
            (200, {}, {"totals": [21.0]}),
        ]
        with _ScriptedServer(script) as stub:
            sleeps = []
            client = recording_client(stub.port, sleeps, backoff=0.05)
            assert client.evaluate([["V3", "V5"]]) == [21.0]
            assert sleeps == [0.05]


class TestFailFast:
    def test_retries_default_to_zero(self):
        script = [(503, {}, {"error": "draining"}), (200, {}, {})]
        with _ScriptedServer(script) as stub:
            client = ServeClient("127.0.0.1", stub.port, timeout=5.0)
            with pytest.raises(ServeClientError) as info:
                client.healthz()
            assert info.value.status == 503
            assert stub.hits == 1

    def test_deterministic_statuses_are_not_retried(self):
        for status in (400, 404, 500, 504):
            script = [(status, {}, {"error": "nope"}), (200, {}, {})]
            with _ScriptedServer(script) as stub:
                sleeps = []
                client = recording_client(stub.port, sleeps, retries=5)
                with pytest.raises(ServeClientError) as info:
                    client.query({"kind": "evaluate", "placements": []})
                assert info.value.status == status
                assert sleeps == []
                assert stub.hits == 1

    def test_bad_retry_knobs_are_rejected(self):
        with pytest.raises(ServeRequestError):
            ServeClient(retries=-1)
        with pytest.raises(ServeRequestError):
            ServeClient(jitter=1.5)
