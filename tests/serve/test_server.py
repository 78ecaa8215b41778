"""HTTP server behavior: admission control, deadlines, drain, health.

Malformed requests are checked against the fleet front as well, since
both read requests with the same framing code.

The load-shedding tests use the fault injector's request-delay stream
(rate 1.0) to make every admitted request slow *inside* the server,
then verify that excess concurrent requests are rejected immediately
with 429 — never queued, never hung.
"""

import importlib.util
import json
import logging
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeClientError, ServeError
from repro.reliability import FaultConfig, FaultInjector
from repro.serve import (
    FleetConfig,
    FleetThread,
    PlacementFleet,
    PlacementServer,
    QueryEngine,
    ServerThread,
    local_worker_factory,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def slow_engine(artifact, seconds: float) -> QueryEngine:
    injector = FaultInjector(
        FaultConfig(
            request_delay_rate=1.0,
            request_delay_seconds=seconds,
        ),
        seed=3,
    )
    return QueryEngine(artifact, fault_injector=injector)


class TestBasics:
    def test_round_trip_query_and_health(self, engine):
        with ServerThread(engine) as handle:
            client = handle.client()
            assert client.evaluate([["V3", "V5"]]) == [21.0]
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["digest"] == engine.artifact.digest
            assert health["pipeline"]["rows_read"] >= 1

    def test_repeated_evaluate_is_answered_from_the_engine_cache(
        self, engine, monkeypatch
    ):
        scored = []
        score = engine.evaluate_totals

        def counting_score(*args, **kwargs):
            scored.append(args)
            return score(*args, **kwargs)

        monkeypatch.setattr(engine, "evaluate_totals", counting_score)
        request = {"kind": "evaluate", "placements": [["V3", "V5"]]}
        with ServerThread(engine) as handle:
            client = handle.client()
            first = client.query(request)
            assert client.healthz()["cache"]["entries"] == 1
            second = client.query(request)
        assert first == second
        assert first["totals"] == [21.0]
        assert len(scored) == 1

    def test_unknown_path_is_404(self, engine):
        with ServerThread(engine) as handle:
            with pytest.raises(ServeClientError) as info:
                handle.client()._request("POST", "/nope", {"kind": "x"})
            assert info.value.status == 404

    def test_invalid_json_is_400(self, engine):
        import http.client

        with ServerThread(engine) as handle:
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            connection.request("POST", "/query", body=b"{nope")
            response = connection.getresponse()
            assert response.status == 400
            connection.close()

    def test_bad_request_kind_is_400(self, engine):
        with ServerThread(engine) as handle:
            with pytest.raises(ServeClientError) as info:
                handle.client().query({"kind": "explode"})
            assert info.value.status == 400

    def test_top_gains_on_an_unknown_site_is_400(self, engine):
        with ServerThread(engine) as handle:
            with pytest.raises(ServeClientError) as info:
                handle.client().top_gains(["no-such-node"], limit=2)
            assert info.value.status == 400
            assert "not an intersection" in str(info.value)

    def test_oversized_body_is_413(self, engine):
        import http.client

        with ServerThread(engine) as handle:
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Length", str(64 * 1024 * 1024))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            connection.close()

    def test_server_thread_rejects_bad_argument(self):
        with pytest.raises(ServeError, match="wraps a QueryEngine"):
            ServerThread("not an engine")


def raw_query(port, fields, body=b""):
    """One hand-framed ``POST /query``: ``(status, headers, payload)``.

    ``fields`` are sent verbatim after the request line, so a test can
    send a head no well-behaved client would.
    """
    head = "\r\n".join(["POST /query HTTP/1.1", "Host: test", *fields])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n\r\n" + body)
        reply = sock.makefile("rb")
        status_line = reply.readline().decode("latin-1")
        assert status_line, "connection closed without a reply"
        headers = {}
        for line in iter(reply.readline, b"\r\n"):
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = json.loads(reply.read(int(headers["content-length"])))
    return int(status_line.split()[1]), headers, payload


@pytest.fixture(params=["server", "fleet"])
def front(request, artifact):
    """A running server, or a one-worker fleet front, over ``artifact``."""
    if request.param == "server":
        handle = ServerThread(QueryEngine(artifact))
    else:
        fleet = PlacementFleet(
            local_worker_factory(lambda: QueryEngine(artifact)),
            digest=artifact.digest,
            config=FleetConfig(workers=1),
        )
        handle = FleetThread(fleet)
    with handle:
        yield handle


class TestMalformedRequests:
    def test_every_malformed_request_gets_a_status(self, front, caplog):
        caplog.set_level(logging.WARNING, logger="asyncio")
        cases = [
            (["Content-Length: 6"], b"[1, 2]", 400),
            (["Content-Length: 1"], b"5", 400),
            (["Content-Length: 10"], b'"evaluate"', 400),
            (["Content-Length: 4"], b"null", 400),
            (["Content-Length: abc"], b"", 400),
            (["Content-Length: 1.5"], b"", 400),
            (["Content-Length: -5"], b"", 400),
            ([f"Content-Length: {64 * 1024 * 1024}"], b"", 413),
        ]
        for fields, body, expected in cases:
            status, headers, payload = raw_query(front.port, fields, body)
            assert (status, "error" in payload) == (expected, True), fields
            if not body:  # the body was left unread: no reuse
                assert headers["connection"] == "close", fields
            assert front.client().evaluate([["V3", "V5"]]) == [21.0]
        logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
        assert logged == []


class TestAdmissionControl:
    def test_overload_sheds_with_429_and_never_hangs(self, artifact):
        engine = slow_engine(artifact, seconds=0.4)
        statuses = []
        lock = threading.Lock()

        with ServerThread(engine, max_inflight=1) as handle:

            def fire():
                client = handle.client(timeout=10.0)
                t0 = time.perf_counter()
                try:
                    client.evaluate([["V3"]])
                    outcome = (200, time.perf_counter() - t0)
                except ServeClientError as error:
                    outcome = (error.status, time.perf_counter() - t0)
                with lock:
                    statuses.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=15.0)
                assert not thread.is_alive(), "a request hung"

        codes = sorted(code for code, _ in statuses)
        assert 200 in codes, statuses
        assert 429 in codes, statuses
        # Rejections are immediate: far faster than the injected stall.
        for code, elapsed in statuses:
            if code == 429:
                assert elapsed < 0.35, statuses
        assert handle.server.rejected == codes.count(429)

    def test_timeout_answers_504(self, artifact):
        engine = slow_engine(artifact, seconds=0.5)
        with ServerThread(engine, timeout=0.05) as handle:
            with pytest.raises(ServeClientError) as info:
                handle.client(timeout=10.0).evaluate([["V3"]])
            assert info.value.status == 504

    def test_deadline_header_caps_the_request_budget(self, artifact):
        import http.client

        from repro.serve.server import DEADLINE_HEADER

        # Server timeout is generous; the forwarded deadline is not.
        engine = slow_engine(artifact, seconds=0.3)
        with ServerThread(engine, timeout=30.0) as handle:
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            connection.request(
                "POST",
                "/query",
                body=json.dumps(
                    {"kind": "evaluate", "placements": [["V3"]]}
                ),
                headers={DEADLINE_HEADER: "0.05"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
            connection.close()
            assert response.status == 504
            assert payload["retryable"] is True

    def test_injected_faults_answer_500(self, artifact):
        injector = FaultInjector(
            FaultConfig(request_error_rate=1.0), seed=5
        )
        engine = QueryEngine(artifact, fault_injector=injector)
        with ServerThread(engine) as handle:
            with pytest.raises(ServeClientError) as info:
                handle.client().evaluate([["V3"]])
            assert info.value.status == 500
            health = handle.client().healthz()
            assert health["pipeline"]["row_error_rate"] > 0
            assert "ServeFaultError" in health["pipeline"]["row_faults"]


class TestGracefulShutdown:
    def test_idle_keep_alive_client_is_closed_at_drain(self, engine, caplog):
        # The client's connection stays open, waiting for a next request
        # that never comes; the drain must close it, not leave its
        # handler to be cancelled at loop teardown.
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(engine) as handle:
                client = handle.client()
                assert client.evaluate([["V3", "V5"]]) == [21.0]
        client.close()
        assert [r for r in caplog.records if r.name == "asyncio"] == []

    def test_inflight_request_finishes_during_drain(self, artifact):
        engine = slow_engine(artifact, seconds=0.3)
        results = []

        handle = ServerThread(engine)
        handle.__enter__()
        try:
            def fire():
                try:
                    results.append(handle.client(timeout=10.0).evaluate(
                        [["V3", "V5"]]
                    ))
                except ServeClientError as error:
                    results.append(error)

            worker = threading.Thread(target=fire)
            worker.start()
            time.sleep(0.1)  # request is admitted and stalling server-side
        finally:
            handle.stop()  # loop stops, then drains before exiting
        worker.join(timeout=15.0)
        assert not worker.is_alive()
        assert results == [[21.0]]

    def test_drain_finishes_inflight_evaluates_and_rejects_new_work(
        self, artifact
    ):
        import asyncio
        import http.client

        # The injected 0.5s delay holds all three evaluates in flight when
        # the drain starts; the drain must let them finish.
        engine = slow_engine(artifact, seconds=0.5)
        server = PlacementServer(engine)
        results = []
        lock = threading.Lock()

        handle = ServerThread(server)
        handle.__enter__()
        try:
            # Established keep-alive connection: drain closes the
            # listening socket, so the 503 probe needs an open one.
            probe = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            probe.request("GET", "/healthz")
            probe.getresponse().read()

            barrier = threading.Barrier(3)

            def fire():
                client = handle.client(timeout=15.0)
                barrier.wait()
                outcome = client.evaluate([["V3", "V5"]])
                with lock:
                    results.append(outcome)

            threads = [threading.Thread(target=fire) for _ in range(3)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 5.0
            while server.inflight < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.inflight == 3

            future = asyncio.run_coroutine_threadsafe(
                server.shutdown(drain_timeout=10.0), handle._loop
            )
            deadline = time.monotonic() + 5.0
            while not server.draining and time.monotonic() < deadline:
                time.sleep(0.01)

            probe.request(
                "POST",
                "/query",
                body=json.dumps(
                    {"kind": "evaluate", "placements": [["V3"]]}
                ),
            )
            response = probe.getresponse()
            rejected = json.loads(response.read())
            probe.close()
            assert response.status == 503
            assert rejected["retryable"] is True

            future.result(timeout=12.0)
            assert server.inflight == 0

            for thread in threads:
                thread.join(timeout=15.0)
                assert not thread.is_alive()
            assert results == [[21.0], [21.0], [21.0]]
        finally:
            handle.stop()

    def test_stopped_server_refuses_connections(self, engine):
        with ServerThread(engine) as handle:
            port = handle.port
            handle.client().evaluate([["V3"]])
        from repro.serve import ServeClient

        with pytest.raises(ServeClientError) as info:
            ServeClient("127.0.0.1", port, timeout=2.0).evaluate([["V3"]])
        assert info.value.status is None  # transport error, not HTTP


class TestLatencyLog:
    def test_requests_land_in_the_jsonl_log(self, engine, tmp_path):

        log = tmp_path / "latency.jsonl"
        server = PlacementServer(engine, latency_log=log)
        with ServerThread(server) as handle:
            handle.client().evaluate([["V3"]])
            handle.client().healthz()
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert {record["path"] for record in records} == {
            "/query", "/healthz"
        }
        for record in records:
            assert record["status"] == 200
            assert record["duration"] >= 0.0


class TestServingExample:
    def test_serve_queries_example_runs(self, capsys):
        path = REPO_ROOT / "examples" / "serve_queries.py"
        spec = importlib.util.spec_from_file_location("serve_queries", path)
        example = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(example)
        example.main()
        out = capsys.readouterr().out
        assert "digest match = True" in out
        assert "engine cache:" in out
