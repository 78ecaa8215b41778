"""Fleet behavior: routing, supervision, resilience, shedding.

Everything runs on the Fig. 4 worked example with in-process
:class:`~repro.serve.fleet.LocalWorker` replicas, so expected numbers
stay hand-checkable ({V3, V5} attracts 21.0 under the threshold
utility) and worker crashes are the in-process ``kill()`` analogue of
SIGKILL.  Supervision tests poll with deadlines rather than fixed
sleeps so they stay fast on a quiet machine and robust on a loaded one.
"""

import logging
import socket
import threading
import time

import pytest

from repro.core.reference import evaluate_placement
from repro.errors import (
    ServeClientError,
    ServeError,
    ServeRequestError,
    ServeWorkerError,
)
from repro.reliability import FaultConfig, FaultInjector
from repro.serve import (
    FleetConfig,
    PlacementFleet,
    QueryEngine,
    RetryPolicy,
    SHED_TIERS,
    ServerThread,
    local_worker_factory,
)


def fast_config(**overrides):
    """Supervision knobs tightened for test runtime."""
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


def make_fleet(artifact, config=None, engine_factory=None, factory=None):
    if factory is None:
        factory = local_worker_factory(
            engine_factory or (lambda: QueryEngine(artifact))
        )
    return PlacementFleet(
        factory, digest=artifact.digest, config=config or fast_config()
    )


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestShutdown:
    def test_idle_keep_alive_client_is_closed_at_drain(self, artifact, caplog):
        fleet = make_fleet(artifact)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServerThread(fleet) as handle:
                client = handle.client()
                assert client.evaluate([["V3", "V5"]]) == [21.0]
        client.close()
        assert [r for r in caplog.records if r.name == "asyncio"] == []


def serve_threads():
    """The live service threads (fronts and in-process workers alike)."""
    return {t for t in threading.enumerate() if t.name == "rapflow-serve"}


class TestFailedStart:
    """A fleet that cannot finish starting leaves no worker running."""

    def test_a_front_that_cannot_bind_stops_its_workers(self, artifact):
        before = serve_threads()
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            fleet = make_fleet(
                artifact, config=fast_config(port=taken.getsockname()[1])
            )
            with pytest.raises(ServeError, match="server failed to start"):
                ServerThread(fleet).__enter__()
        assert wait_until(lambda: serve_threads() <= before), (
            serve_threads() - before
        )

    def test_a_shard_with_no_worker_up_stops_the_other_shard(
        self, artifact, linear_artifact
    ):
        def no_engine():
            raise ServeWorkerError("this engine never starts")

        before = serve_threads()
        fleet = PlacementFleet(
            None,
            digest=artifact.digest,
            shards={
                artifact.digest: local_worker_factory(
                    lambda: QueryEngine(artifact)
                ),
                linear_artifact.digest: local_worker_factory(no_engine),
            },
            config=fast_config(),
        )
        with pytest.raises(ServeError, match="no worker came up for shard"):
            ServerThread(fleet).__enter__()
        assert wait_until(lambda: serve_threads() <= before), (
            serve_threads() - before
        )


class TestRouting:
    def test_round_trip_is_bit_identical_to_direct_calls(self, artifact):
        expected = QueryEngine(artifact).evaluate_totals([("V3", "V5")])
        oracle = evaluate_placement(artifact.scenario, ["V3", "V5"]).attracted
        assert expected == [oracle] == [21.0]
        fleet = make_fleet(artifact)
        with ServerThread(fleet) as handle:
            client = handle.client()
            response = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            assert response["totals"] == expected
            assert response["digest"] == artifact.digest
            assert response["served_by"].startswith("w")
            assert "degraded" not in response

    def test_requests_spread_across_workers(self, artifact):
        fleet = make_fleet(artifact, config=fast_config(workers=3))
        with ServerThread(fleet) as handle:
            client = handle.client()
            served_by = {
                client.query(
                    {"kind": "evaluate", "placements": [["V3"]]}
                )["served_by"]
                for _ in range(9)
            }
        assert len(served_by) > 1

    def test_healthz_reports_workers_and_tiers(self, artifact):
        fleet = make_fleet(artifact)
        with ServerThread(fleet) as handle:
            health = handle.client().healthz()
        assert health["digest"] == artifact.digest
        assert [doc["state"] for doc in health["workers"]] == ["up", "up"]
        tiers = health["admission"]["tiers"]
        assert set(tiers) == set(SHED_TIERS)
        assert tiers["place"]["budget"] < tiers["evaluate"]["budget"]

    def test_unknown_path_and_draining(self, artifact):
        fleet = make_fleet(artifact)
        with ServerThread(fleet) as handle:
            client = handle.client()
            with pytest.raises(ServeClientError) as info:
                client.query({"kind": "nonsense"})
            # Workers answer 400 for bad kinds; the front passes the
            # deterministic error through instead of retrying it.
            assert info.value.status == 400


class TestMultiShard:
    """One front, several digest-keyed shards, header-routed."""

    def two_shard_fleet(self, artifact, linear_artifact, **config_overrides):
        shards = {
            artifact.digest: local_worker_factory(
                lambda: QueryEngine(artifact)
            ),
            linear_artifact.digest: local_worker_factory(
                lambda: QueryEngine(linear_artifact)
            ),
        }
        return PlacementFleet(
            None,
            digest=artifact.digest,
            shards=shards,
            config=fast_config(**config_overrides),
        )

    def test_digest_header_routes_to_the_named_shard(
        self, artifact, linear_artifact
    ):
        threshold_expected = QueryEngine(artifact).evaluate_totals(
            [("V3", "V5")]
        )
        linear_expected = QueryEngine(linear_artifact).evaluate_totals(
            [("V3", "V5")]
        )
        # Same placement, different utility semantics: the two shards
        # must answer differently, which proves routing actually
        # switched worker groups.
        assert threshold_expected != linear_expected
        fleet = self.two_shard_fleet(artifact, linear_artifact)
        with ServerThread(fleet) as handle:
            for digest, expected in (
                (artifact.digest, threshold_expected),
                (linear_artifact.digest, linear_expected),
            ):
                client = handle.client(digest=digest)
                response = client.query(
                    {"kind": "evaluate", "placements": [["V3", "V5"]]}
                )
                assert response["totals"] == expected
                assert response["digest"] == digest

    def test_no_header_hits_the_default_shard(self, artifact,
                                              linear_artifact):
        fleet = self.two_shard_fleet(artifact, linear_artifact)
        with ServerThread(fleet) as handle:
            response = handle.client().query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            assert response["digest"] == artifact.digest
            assert response["totals"] == [21.0]

    def test_unknown_digest_is_a_404(self, artifact, linear_artifact):
        fleet = self.two_shard_fleet(artifact, linear_artifact)
        with ServerThread(fleet) as handle:
            client = handle.client(digest="f" * 64)
            with pytest.raises(ServeClientError) as info:
                client.evaluate([["V3"]])
            assert info.value.status == 404
            assert "no shard" in str(info.value)

    def test_healthz_reports_every_shard(self, artifact, linear_artifact):
        fleet = self.two_shard_fleet(artifact, linear_artifact)
        with ServerThread(fleet) as handle:
            health = handle.client().healthz()
        shards = health["shards"]
        assert set(shards) == {artifact.digest, linear_artifact.digest}
        assert shards[artifact.digest]["default"] is True
        assert shards[linear_artifact.digest]["default"] is False
        for doc in shards.values():
            assert [w["state"] for w in doc["workers"]] == ["up", "up"]

    def test_default_digest_must_be_a_configured_shard(self, artifact):
        with pytest.raises(ServeRequestError):
            PlacementFleet(
                None,
                digest="e" * 64,
                shards={
                    artifact.digest: local_worker_factory(
                        lambda: QueryEngine(artifact)
                    )
                },
                config=fast_config(),
            )


class TestSupervision:
    def test_killed_worker_is_respawned(self, artifact):
        fleet = make_fleet(artifact)
        with ServerThread(fleet) as handle:
            client = handle.client()
            assert client.evaluate([["V3", "V5"]]) == [21.0]
            fleet.worker_handle(0).kill()
            assert wait_until(
                lambda: client.healthz()["respawns"] >= 1
            ), "supervisor never respawned the killed worker"
            assert client.evaluate([["V3", "V5"]]) == [21.0]
            health = client.healthz()
            assert [doc["state"] for doc in health["workers"]] == [
                "up",
                "up",
            ]

    def test_stalled_worker_is_detected_and_recovered(self, artifact):
        fleet = make_fleet(artifact)
        with ServerThread(fleet) as handle:
            client = handle.client()
            fleet.worker_handle(1).inject_stall(1.2)
            assert wait_until(
                lambda: client.healthz()["respawns"] >= 1
            ), "supervisor never recovered the stalled worker"
            assert client.evaluate([["V3", "V5"]]) == [21.0]

    def test_circuit_breaker_ejects_flapping_worker(self, artifact):
        config = fast_config(
            workers=2, breaker_threshold=1, breaker_window=60.0
        )
        fleet = make_fleet(artifact, config=config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            fleet.worker_handle(0).kill()
            assert wait_until(lambda: client.healthz()["respawns"] >= 1)
            fleet.worker_handle(0).kill()
            assert wait_until(
                lambda: "ejected"
                in [
                    doc["state"]
                    for doc in client.healthz()["workers"]
                ]
            ), "breaker never ejected the flapping worker"
            # The surviving replica keeps the shard available.
            assert client.evaluate([["V3", "V5"]]) == [21.0]


#: One request of every kind the fleet serves; all four are pure reads.
EVERY_KIND = [
    {"kind": "evaluate", "placements": [["V3", "V5"]]},
    {"kind": "what_if", "placement": ["V3"], "add": "V5"},
    {"kind": "top_gains", "placement": ["V3"], "limit": 2},
    {"kind": "place", "k": 2},
]


class TestResilience:
    @pytest.mark.parametrize(
        "request_body", EVERY_KIND, ids=[body["kind"] for body in EVERY_KIND]
    )
    def test_retry_routes_around_a_dead_worker(self, artifact, request_body):
        # Supervisor effectively disabled: the front's own retry must
        # cover the gap between a crash and its detection, whatever
        # the kind.
        expected = QueryEngine(artifact).handle(dict(request_body))
        config = fast_config(workers=2, heartbeat_interval=30.0)
        fleet = make_fleet(artifact, config=config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            fleet.worker_handle(0).kill()
            for _ in range(4):
                reply = client.query(dict(request_body))
                assert not reply.get("degraded"), reply
                assert {key: reply[key] for key in expected} == expected
            assert fleet.retries >= 1

    def test_worker_being_killed_has_no_address(self, artifact):
        # Between a kill closing the socket and the thread being joined
        # the worker still holds its server thread; a forward landing
        # there must see a worker error, which the retry path handles.
        from repro.serve import LocalWorker

        worker = LocalWorker("w0", lambda: QueryEngine(artifact))
        worker.start()
        worker._handle.kill()
        with pytest.raises(ServeWorkerError):
            worker.address
        worker.kill()

    def test_corrupt_replies_are_detected_and_retried(self, artifact):
        def engine_for(index):
            if index == 0:
                injector = FaultInjector(
                    FaultConfig(request_corrupt_rate=1.0), seed=5
                )
                return QueryEngine(artifact, fault_injector=injector)
            return QueryEngine(artifact)

        def factory(index):
            from repro.serve import LocalWorker

            return LocalWorker(f"w{index}", lambda: engine_for(index))

        fleet = make_fleet(artifact, factory=factory)
        with ServerThread(fleet) as handle:
            client = handle.client()
            response = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            # The garbled reply from w0 never surfaces: the front
            # detects the digest mismatch and retries on w1.
            assert response["totals"] == [21.0]
            assert response["digest"] == artifact.digest
            assert response["served_by"] == "w1"
            assert fleet.corrupt_detected >= 1

    def test_degraded_fallback_replays_cached_reply(self, artifact):
        # No supervision: when the only worker dies, nothing respawns,
        # and the front must fall back to its reply cache.
        config = fast_config(workers=1, heartbeat_interval=30.0)
        fleet = make_fleet(artifact, config=config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            fresh = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            assert "degraded" not in fresh
            fleet.worker_handle(0).kill()
            stale = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            assert stale["degraded"] is True
            assert stale["totals"] == fresh["totals"] == [21.0]
            assert fleet.degraded == 1
            # An uncached request has nothing to degrade to: 503.
            with pytest.raises(ServeClientError) as info:
                client.query(
                    {"kind": "evaluate", "placements": [["V2", "V4"]]}
                )
            assert info.value.status == 503

    def test_hedged_request_races_a_second_replica(self, artifact):
        def engine_for(index):
            if index == 0:
                injector = FaultInjector(
                    FaultConfig(
                        request_delay_rate=1.0,
                        request_delay_seconds=0.5,
                    ),
                    seed=5,
                )
                return QueryEngine(artifact, fault_injector=injector)
            return QueryEngine(artifact)

        def factory(index):
            from repro.serve import LocalWorker

            return LocalWorker(f"w{index}", lambda: engine_for(index))

        config = fast_config(
            workers=2,
            retry=RetryPolicy(retries=1, hedge=True, hedge_delay=0.05),
        )
        fleet = make_fleet(artifact, config=config, factory=factory)
        with ServerThread(fleet) as handle:
            client = handle.client()
            t0 = time.monotonic()
            response = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
            elapsed = time.monotonic() - t0
            assert response["totals"] == [21.0]
            # The fast replica's hedged answer wins long before the
            # slow primary's 0.5 s injected delay expires.
            assert response["served_by"] == "w1"
            assert elapsed < 0.45
            assert fleet.hedges >= 1


class TestSheddingTiers:
    def test_place_budget_is_a_quarter_of_evaluate(self, artifact):
        fleet = make_fleet(artifact, config=fast_config(max_inflight=16))
        assert fleet._admit("evaluate") is None
        fleet._inflight = 4
        shed = fleet._admit("place")
        assert shed is not None and shed[0] == 429
        assert fleet._admit("evaluate") is None
        fleet._inflight = 8
        assert fleet._admit("top_gains") is not None
        assert fleet._admit("evaluate") is None
        fleet._inflight = 16
        assert fleet._admit("evaluate") is not None
        assert fleet.shed["place"] == 1
        assert fleet.shed["top_gains"] == 1
        assert fleet.shed["evaluate"] == 1

    def test_shed_responses_carry_retry_after_over_http(self, artifact):
        config = fast_config(workers=1, max_inflight=4)
        fleet = make_fleet(artifact, config=config)
        with ServerThread(fleet) as handle:
            client = handle.client()
            fleet._inflight = 4  # simulate saturation
            try:
                with pytest.raises(ServeClientError) as info:
                    client.place(k=2)
                assert info.value.status == 429
                assert info.value.retryable
                assert info.value.retry_after is not None
            finally:
                fleet._inflight = 0


class TestValidation:
    def test_config_rejects_bad_knobs(self):
        with pytest.raises(ServeRequestError):
            FleetConfig(workers=0).validate()
        with pytest.raises(ServeRequestError):
            FleetConfig(max_missed=0).validate()
        with pytest.raises(ServeRequestError):
            FleetConfig(retry=RetryPolicy(retries=-1)).validate()
        with pytest.raises(ServeRequestError):
            FleetConfig(retry=RetryPolicy(jitter=1.5)).validate()

    def test_config_refuses_a_front_batch_window(self):
        # The front no longer batches; asking it to must not pass quietly.
        with pytest.raises(ServeRequestError, match="no longer batches"):
            FleetConfig(front_batch_window=0.002).validate()
