"""The front's keep-alive hop to its workers: reuse, resend, drain order.

Every forward, heartbeat probe and ``/metrics`` fan-out rides an idle
pooled connection when one is open.  These tests pin the rules that
make that safe: a connection that did not carry a complete reply is
never reused (a late reply left on it would answer the next request), a
stale connection is resent once on a fresh one, and the pools close
before any worker is stopped (a worker's drain waits for its open
connections, as ``Server.wait_closed`` does from Python 3.12).

Replies are checked against direct :class:`QueryEngine` answers.  Each
request size gives a reply of that many totals, so a reply delivered to
the wrong request can never pass for the right one.
"""

import time

import pytest

from repro.errors import ServeClientError
from repro.obs import load_traces
from repro.serve import (
    FleetConfig,
    PlacementFleet,
    PlacementServer,
    QueryEngine,
    RetryPolicy,
    ServerThread,
    local_worker_factory,
)

SITES = ["V1", "V2", "V3", "V4", "V5", "V6"]

#: How long a worker's stop waits for its clients to hang up; a stop
#: that hits it means the front kept a pooled connection open.
WAIT_CLOSED_LIMIT = 3.0


def fast_config(**overrides):
    defaults = dict(
        workers=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.3,
        max_missed=2,
        respawn_backoff=0.05,
        respawn_backoff_cap=0.3,
        retry=RetryPolicy(retries=2, backoff=0.01, backoff_cap=0.05),
        seed=7,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def make_fleet(artifact, config):
    factory = local_worker_factory(lambda: QueryEngine(artifact))
    return PlacementFleet(factory, digest=artifact.digest, config=config)


def evaluate_request(size):
    """An evaluate request whose reply carries ``size`` totals."""
    return {
        "kind": "evaluate",
        "placements": [
            [SITES[index % 6], SITES[(index + 1) % 6]]
            for index in range(size)
        ],
    }


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class CountingServer(PlacementServer):
    """A placement server that counts its open client connections."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.open_connections = 0

    async def _serve_connection(self, reader, writer):
        self.open_connections += 1
        try:
            await super()._serve_connection(reader, writer)
        finally:
            self.open_connections -= 1


class WaitClosedWorker:
    """An in-process worker whose stop waits for its clients to hang up.

    Python 3.12's ``Server.wait_closed`` waits for every open connection
    before a drain completes; this worker does the same on any version
    (up to :data:`WAIT_CLOSED_LIMIT`) and records how many connections
    were still open when it gave up waiting.
    """

    def __init__(self, worker_id, artifact):
        self.worker_id = worker_id
        self._artifact = artifact
        self.server = None
        self._handle = None
        self.open_at_stop = None

    def start(self):
        self.server = CountingServer(
            QueryEngine(self._artifact), worker_label=self.worker_id
        )
        self._handle = ServerThread(self.server).__enter__()

    def stop(self):
        deadline = time.monotonic() + WAIT_CLOSED_LIMIT
        while self.server.open_connections and time.monotonic() < deadline:
            time.sleep(0.005)
        self.open_at_stop = self.server.open_connections
        self._handle.stop()

    def kill(self):
        self._handle.kill()

    @property
    def address(self):
        return self.server.host, self._handle.port


def wait_closed_factory(artifact, made):
    def factory(index):
        worker = WaitClosedWorker(f"w{index}", artifact)
        made.append(worker)
        return worker

    return factory


class TestReuse:
    def test_sequential_evaluates_open_one_connection_per_worker(
        self, artifact
    ):
        # No heartbeats, so only forwards and the one /metrics fan-out
        # touch the pools.
        fleet = make_fleet(artifact, fast_config(heartbeat_interval=30.0))
        reference = QueryEngine(artifact)
        with ServerThread(fleet) as handle:
            client = handle.client()
            for size in range(1, 21):
                request = evaluate_request(size)
                reply = client.query(request)
                assert reply["totals"] == reference.handle(request)["totals"]
            counters = client.metrics()["counters"]
            client.close()
        assert counters["worker_connects"] == 2
        assert counters["worker_resends"] == 0

    def test_heartbeats_share_the_pool(self, artifact):
        fleet = make_fleet(artifact, fast_config())
        with ServerThread(fleet) as handle:
            client = handle.client()
            for _ in range(40):
                client.query(evaluate_request(2))
            time.sleep(0.3)  # several heartbeat rounds on top
            counters = client.metrics()["counters"]
            client.close()
        # A forward, a probe and the /metrics call overlap at most three
        # deep on one worker, so a few connections per worker suffice
        # (more only if a slow probe times out and drops its own); one
        # per exchange would be over fifty.
        assert counters["worker_connects"] <= 10

    def test_place_succeeds_after_kill_and_respawn(self, artifact):
        fleet = make_fleet(artifact, fast_config(workers=1))
        expected = QueryEngine(artifact).handle({"kind": "place", "k": 2})
        with ServerThread(fleet) as handle:
            client = handle.client()
            client.query(evaluate_request(3))  # pools a connection
            fleet.worker_handle(0).kill()
            assert wait_until(
                lambda: client.healthz()["respawns"] >= 1
                and client.healthz()["workers"][0]["state"] == "up"
            ), "supervisor never respawned the killed worker"
            # The pooled connection is stale; the front resends or
            # retries the place like any other kind.
            reply = client.place(k=2)
            client.close()
        assert reply["raps"] == expected["raps"]
        assert reply["attracted"] == expected["attracted"]

    def test_stale_pooled_connection_is_resent_once(self, artifact, tmp_path):
        # No heartbeats: the front never learns the worker restarted,
        # so its pooled connection to the old incarnation goes stale.
        config = fast_config(
            workers=1, heartbeat_interval=30.0, trace_dir=tmp_path
        )
        fleet = make_fleet(artifact, config)
        expected = QueryEngine(artifact).handle({"kind": "place", "k": 2})
        with ServerThread(fleet) as handle:
            client = handle.client()
            first = client.query(evaluate_request(1))
            second = client.query(evaluate_request(2))
            worker = fleet.worker_handle(0)
            worker.kill()
            worker.start()
            reply = client.place(k=2)
            counters = client.metrics()["counters"]
            client.close()
        assert reply["raps"] == expected["raps"]
        assert counters["worker_resends"] == 1
        assert counters["worker_connects"] == 2

        traces = load_traces(tmp_path)
        hops = [
            traces[payload["trace_id"]].named("front.attempt")[0].attrs
            for payload in (first, second, reply)
        ]
        assert [attrs["conn"] for attrs in hops] == ["new", "reused", "reused"]
        assert [attrs.get("resent", False) for attrs in hops] == [
            False,
            False,
            True,
        ]
        assert hops[2]["status"] == 200


class TestNoMisattribution:
    """A connection abandoned mid-request must never serve another one."""

    def test_timed_out_connection_is_not_reused(self, artifact):
        reference = QueryEngine(artifact)
        config = fast_config(
            workers=1,
            heartbeat_interval=30.0,
            timeout=0.25,
            retry=RetryPolicy(retries=0),
        )
        fleet = make_fleet(artifact, config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            client.query(evaluate_request(1))  # pools the connection
            fleet.worker_handle(0).inject_stall(0.6)
            with pytest.raises(ServeClientError) as info:
                client.query(evaluate_request(7))
            assert info.value.status == 503  # timed out, nothing cached
            # Once the stall passes, the worker answers the abandoned
            # request on the connection the front gave up on.
            time.sleep(0.6)
            replies = {
                size: client.query(evaluate_request(size))["totals"]
                for size in range(2, 7)
            }
            client.close()
        for size, totals in replies.items():
            assert totals == reference.handle(evaluate_request(size))["totals"]

    def test_cancelled_hedge_loser_is_not_reused(self, artifact):
        reference = QueryEngine(artifact)
        config = fast_config(
            workers=2,
            heartbeat_interval=30.0,
            retry=RetryPolicy(retries=1, hedge=True, hedge_delay=0.05),
        )
        fleet = make_fleet(artifact, config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            # Round-robin: w0, w1 — one pooled connection each.
            client.query(evaluate_request(1))
            client.query(evaluate_request(2))
            fleet.worker_handle(0).inject_stall(0.5)
            # The next primary is the stalled w0; w1's hedge wins and
            # the primary is cancelled with its request still unread.
            raced = client.query(evaluate_request(7))
            assert raced["served_by"] == "w1"
            assert fleet.hedges == 1
            time.sleep(0.6)
            replies = [
                (client.query(evaluate_request(size)), size)
                for size in range(2, 7)
            ]
            client.close()
        assert {reply["served_by"] for reply, _ in replies} == {"w0", "w1"}
        for reply, size in replies:
            expected = reference.handle(evaluate_request(size))["totals"]
            assert reply["totals"] == expected


class TestDrainOrder:
    """Pools close before workers stop, so drains finish promptly."""

    def test_shutdown_closes_pools_before_stopping_workers(
        self, artifact, async_sanitizer
    ):
        leaked_before = async_sanitizer.leaked_tasks
        made = []
        fleet = PlacementFleet(
            wait_closed_factory(artifact, made),
            digest=artifact.digest,
            config=fast_config(),
        )
        with ServerThread(fleet) as handle:
            client = handle.client()
            for size in range(1, 7):
                client.query(evaluate_request(size))
            client.close()
            assert all(worker.server.open_connections for worker in made)
            started = time.monotonic()
        assert time.monotonic() - started < WAIT_CLOSED_LIMIT
        assert [worker.open_at_stop for worker in made] == [0, 0]
        assert async_sanitizer.leaked_tasks == leaked_before

    def test_swap_retires_pools_before_stopping_workers(
        self, artifact, linear_artifact, async_sanitizer
    ):
        leaked_before = async_sanitizer.leaked_tasks
        old = []
        fleet = PlacementFleet(
            wait_closed_factory(artifact, old),
            digest=artifact.digest,
            config=fast_config(),
        )
        with ServerThread(fleet) as handle:
            client = handle.client()
            for size in range(1, 7):
                client.query(evaluate_request(size))
            assert all(worker.server.open_connections for worker in old)
            started = time.monotonic()
            record = fleet.request_swap(
                linear_artifact.digest, wait_closed_factory(linear_artifact, [])
            ).result(timeout=30)
            swap_seconds = time.monotonic() - started
            request = evaluate_request(3)
            after = client.query(request)
            client.close()
        assert record["retired"] is True
        assert swap_seconds < WAIT_CLOSED_LIMIT
        assert [worker.open_at_stop for worker in old] == [0, 0]
        assert after["digest"] == linear_artifact.digest
        assert (
            after["totals"]
            == QueryEngine(linear_artifact).handle(request)["totals"]
        )
        assert async_sanitizer.leaked_tasks == leaked_before
