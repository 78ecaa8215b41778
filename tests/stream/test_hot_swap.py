"""Fleet hot swap: atomic digest flips, draining, and chaos under load.

The chaos-style run flips the fleet between two artifact versions while
16 threads hammer ``evaluate``: availability must stay at or above
99.9% and every reply must be bit-identical to the library result for
whichever artifact version served it (the reply carries its digest, so
there is no ambiguity about which version was active).
"""

from concurrent.futures import ThreadPoolExecutor
from threading import Lock

import pytest

from repro.core.kernel import evaluate_placement_many
from repro.errors import ServeRequestError
from repro.serve import (
    FleetConfig,
    PlacementFleet,
    QueryEngine,
    ServerThread,
    local_worker_factory,
)
from repro.stream import StreamRefresher, TrafficDelta

from .conftest import ROUTES

PLACEMENT = [(0, 3), (3, 0)]


def factory_for(artifact):
    return local_worker_factory(lambda: QueryEngine(artifact))


def make_fleet(artifact, workers=2):
    return PlacementFleet(
        factory_for(artifact),
        artifact.digest,
        FleetConfig(workers=workers, seed=7),
    )


def expected_total(artifact):
    return evaluate_placement_many(artifact.scenario, [PLACEMENT])[0]


class TestSwap:
    def test_swap_routes_new_requests_to_the_new_artifact(
        self, stream_artifact
    ):
        upgraded = stream_artifact.patched({0: 300.0})
        fleet = make_fleet(stream_artifact)
        with ServerThread(fleet) as handle, handle.client() as client:
            assert client.evaluate([PLACEMENT]) == [
                expected_total(stream_artifact)
            ]
            record = fleet.request_swap(
                upgraded.digest, factory_for(upgraded)
            ).result(timeout=30.0)
            assert record["from"] == stream_artifact.digest
            assert record["to"] == upgraded.digest
            assert record["retired"] is True

            assert client.evaluate([PLACEMENT]) == [expected_total(upgraded)]
            health = client.healthz()
            assert health["digest"] == upgraded.digest
            assert health["swap"]["count"] == 1
            assert health["swap"]["last"]["to"] == upgraded.digest
            # The old shard drained away: its workers and routing entry
            # are gone.
            assert list(health["shards"]) == [upgraded.digest]

    def test_swap_to_current_digest_is_a_noop(self, stream_artifact):
        fleet = make_fleet(stream_artifact)
        with ServerThread(fleet) as handle, handle.client() as client:
            record = fleet.request_swap(stream_artifact.digest).result(
                timeout=30.0
            )
            assert record["to"] == stream_artifact.digest
            assert record["spawned"] == 0
            assert client.healthz()["swap"]["count"] == 0

    def test_swap_without_factory_for_unknown_digest_fails(
        self, stream_artifact
    ):
        fleet = make_fleet(stream_artifact)
        with ServerThread(fleet):
            future = fleet.request_swap("ff" * 32)
            with pytest.raises(ServeRequestError):
                future.result(timeout=30.0)

    def test_request_swap_before_start_raises(self, stream_artifact):
        fleet = make_fleet(stream_artifact)
        with pytest.raises(ServeRequestError):
            fleet.request_swap(stream_artifact.digest)

    def test_swap_can_keep_the_old_shard(self, stream_artifact):
        upgraded = stream_artifact.patched({1: 150.0})
        fleet = make_fleet(stream_artifact)
        with ServerThread(fleet) as handle, handle.client() as client:
            fleet.request_swap(
                upgraded.digest, factory_for(upgraded), retire_old=False
            ).result(timeout=30.0)
            health = client.healthz()
            assert set(health["shards"]) == {
                stream_artifact.digest, upgraded.digest,
            }
            # The old version stays addressable by explicit digest.
            with handle.client(digest=stream_artifact.digest) as pinned:
                assert pinned.evaluate([PLACEMENT]) == [
                    expected_total(stream_artifact)
                ]


class TestChaosSwapUnderLoad:
    """Digest flips mid-stream at c=16: availability and bit-identity."""

    CLIENTS = 16
    REQUESTS_PER_CLIENT = 25
    SWAPS = 6

    def test_flips_under_load_lose_nothing(self, stream_artifact, tmp_path):
        versions = {stream_artifact.digest: stream_artifact}
        expected = {
            stream_artifact.digest: expected_total(stream_artifact)
        }

        fleet = make_fleet(stream_artifact, workers=2)
        outcomes = []  # (ok, digest, totals) triples, appended per request
        lock = Lock()

        def hammer(handle):
            with handle.client(timeout=30.0) as client:
                for _ in range(self.REQUESTS_PER_CLIENT):
                    try:
                        response = client.query(
                            {"kind": "evaluate", "placements": [PLACEMENT]}
                        )
                        entry = (True, response["digest"],
                                 response["totals"])
                    except Exception:
                        entry = (False, None, None)
                    with lock:
                        outcomes.append(entry)

        with ServerThread(fleet) as handle:
            refresher = StreamRefresher(
                stream_artifact,
                fleet=fleet,
                worker_factory_for=factory_for,
                passengers_per_bus=100.0,
            )
            with ThreadPoolExecutor(self.CLIENTS) as pool:
                futures = [
                    pool.submit(hammer, handle)
                    for _ in range(self.CLIENTS)
                ]
                try:
                    # Flip back and forth while the hammers run: +2
                    # journeys on route-a, then -2, alternating — the
                    # digest oscillates between exactly two versions.
                    for flip in range(self.SWAPS):
                        count = 2 if flip % 2 == 0 else -2
                        result = refresher.refresh(
                            [TrafficDelta(route=ROUTES[0], count=count,
                                          window_start=3600.0 * flip,
                                          window_end=3600.0 * (flip + 1))]
                        )
                        artifact = refresher.artifact
                        versions[artifact.digest] = artifact
                        expected.setdefault(
                            artifact.digest, expected_total(artifact)
                        )
                        assert result.swap is not None
                finally:
                    for future in futures:
                        future.result(timeout=60.0)

        total = len(outcomes)
        assert total == self.CLIENTS * self.REQUESTS_PER_CLIENT
        ok = sum(1 for success, _, _ in outcomes if success)
        availability = ok / total
        assert availability >= 0.999, f"availability {availability:.4f}"
        # Bit-identity: every reply matches the artifact version that
        # served it (identified by the digest echoed in the reply).
        assert len(expected) == 2
        for success, digest, totals in outcomes:
            if success:
                assert totals == [expected[digest]], digest
        served_digests = {d for success, d, _ in outcomes if success}
        assert len(served_digests) == 2  # both versions actually served
