#!/usr/bin/env python3
"""Streaming: live trace ingestion, incremental recompute, hot swap.

The full streaming loop in one process.  A synthetic GPS feed flows
through the :class:`JourneySegmenter` (idle/resume segmentation plus a
bounded-skew reorder buffer) into an append-only
:class:`JourneyJournal` (WAL tail + sealed segments).  A
:class:`WindowedEstimator` folds the closed journeys into signed
per-route :class:`TrafficDelta` objects.  A :class:`StreamRefresher`
then patches the serving :class:`ScenarioArtifact` incrementally
(CSR volume columns only — no Dijkstra, no utility re-evaluation),
publishes it to the shared-memory pool, and atomically hot-swaps a
live :class:`PlacementFleet` onto the new digest: the old shard drains
in-flight requests while the new one serves, so nothing is dropped.

Run:  python examples/stream_refresh.py
"""

import json
import tempfile

from repro import LinearUtility, Scenario, flow_between, manhattan_grid
from repro.serve import (
    ArtifactStore,
    FleetConfig,
    PlacementFleet,
    QueryEngine,
    ScenarioArtifact,
    ServerThread,
    ShmArtifactPool,
    local_worker_factory,
)
from repro.stream import (
    JourneyJournal,
    JourneySegmenter,
    SegmenterConfig,
    StreamRefresher,
    WindowedEstimator,
)
from repro.traces import GpsRecord

ROUTES = ("north-south artery", "east-west artery", "diagonal commute")


def build_scenario() -> Scenario:
    network = manhattan_grid(9, 9, block=500.0)
    flows = [
        flow_between(network, (0, 4), (8, 4), volume=1200,
                     attractiveness=1.0, label=ROUTES[0]),
        flow_between(network, (4, 0), (4, 8), volume=800,
                     attractiveness=1.0, label=ROUTES[1]),
        flow_between(network, (0, 0), (8, 8), volume=500,
                     attractiveness=1.0, label=ROUTES[2]),
    ]
    return Scenario(network, flows, shop=(3, 3),
                    utility=LinearUtility(3_000.0))


def synthetic_feed():
    """Two hours of GPS samples: journey counts shift between hours.

    Hour one sees 3 / 2 / 1 journeys on the three routes; hour two
    sees 1 / 2 / 3 — so the estimator's second window emits signed
    hour-over-hour deltas (-2, 0, +2) and only two flows change.
    """
    per_window = {0: (3, 2, 1), 1: (1, 2, 3)}
    records = []
    for window, counts in per_window.items():
        base = window * 3600.0
        for route, journeys in zip(ROUTES, counts):
            for j in range(journeys):
                bus = f"{route[:5]}-{window}{j}"
                start = base + 200.0 * j
                for i in range(4):
                    records.append(GpsRecord(
                        bus_id=bus, journey_id=route,
                        timestamp=start + 30.0 * i,
                        x=1000.0 * i, y=500.0 * window,
                    ))
    records.sort(key=lambda r: (r.timestamp, r.bus_id))
    return records


def main() -> None:
    scenario = build_scenario()
    artifact = ScenarioArtifact.compile(scenario)
    print(f"compiled artifact {artifact.digest[:16]}…")

    with tempfile.TemporaryDirectory() as root:
        # -- ingest: segmenter -> journal ------------------------------
        journal = JourneyJournal(f"{root}/journal", segment_records=64)
        segmenter = JourneySegmenter(SegmenterConfig(max_skew=30.0))
        estimator = WindowedEstimator(window=3600.0)
        deltas = []
        for record in synthetic_feed():
            for released in segmenter.observe(record):
                journal.append(released)
        for released in segmenter.flush():
            journal.append(released)
        journal.seal()
        closed = segmenter.poll_closed()
        # The estimator is event-time driven: feed closed journeys in
        # end-time order (flush() closes in bus-key order).
        for journey in sorted(closed, key=lambda c: c.end_time):
            deltas.extend(estimator.observe(journey))
        deltas.extend(estimator.drain())
        status = journal.status()
        print(f"ingested {status['appends_this_session']} records "
              f"({status['sealed_segments']} sealed segments) -> "
              f"{len(closed)} journeys, {len(deltas)} windowed deltas")
        for delta in deltas:
            print(f"  [{delta.window_start:6.0f},{delta.window_end:6.0f})"
                  f"  {delta.route:<20} {delta.count:+d} journeys")

        # -- serve the baseline artifact from a fleet ------------------
        store = ArtifactStore(f"{root}/store")
        store.put(artifact)
        pool = ShmArtifactPool(f"{root}/shm")
        try:
            pool.publish(artifact)

            def worker_factory_for(art: ScenarioArtifact):
                return local_worker_factory(lambda: QueryEngine(art))

            fleet = PlacementFleet(
                worker_factory_for(artifact),
                artifact.digest,
                FleetConfig(workers=2),
            )
            refresher = StreamRefresher(
                artifact,
                store=store,
                pool=pool,
                fleet=fleet,
                worker_factory_for=worker_factory_for,
                passengers_per_bus=100.0,
            )
            with ServerThread(fleet) as handle, handle.client() as client:
                raps = client.place(k=3)["raps"]
                before = client.evaluate([raps])[0]
                print(f"\nserving {client.healthz()['digest'][:16]}…  "
                      f"evaluate({raps}) = {before:.1f}")

                # -- hot swap: ServerThread runs the fleet's event loop
                # on a background thread, so the synchronous refresh()
                # (request_swap().result() inside) is safe here.  Only
                # the second window's signed deltas are folded — the
                # hour-over-hour change, zero-change routes skipped.
                latest = [d for d in deltas if d.window_start == 3600.0]
                result = refresher.refresh(latest, mode="patch")
                print(f"\nrefresh: {result.old_digest[:12]} -> "
                      f"{result.new_digest[:12]} ({result.mode}, "
                      f"{result.flows_changed} flows changed, "
                      f"{result.seconds * 1e3:.1f} ms)")

                after = client.evaluate([raps])[0]
                health = client.healthz()
                print(f"serving {health['digest'][:16]}…  "
                      f"evaluate({raps}) = {after:.1f} "
                      f"(delta {after - before:+.1f})")
                print("\nhealthz swap block:")
                print(json.dumps(health["swap"], indent=2))
        finally:
            pool.unlink_all()
    print("\nshared-memory pool unlinked; no /dev/shm leak.")


if __name__ == "__main__":
    main()
