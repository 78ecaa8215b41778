#!/usr/bin/env python3
"""Serving: compile a scenario artifact and query it over HTTP.

Compiles a grid-city scenario into a content-addressed
``ScenarioArtifact`` (all Dijkstra/coverage/CELF work happens exactly
once), persists it to a disk store, restores it — results are
bit-identical — and then runs the placement-query server in-process,
driving it with the typed client: health probe, a served placement, an
explicit evaluation, a what-if delta, and the top marginal gains.

Run:  python examples/serve_queries.py
"""

import tempfile

from repro import LinearUtility, Scenario, flow_between, manhattan_grid
from repro.serve import (
    ArtifactStore,
    QueryEngine,
    ScenarioArtifact,
    ServerThread,
)


def build_scenario() -> Scenario:
    network = manhattan_grid(9, 9, block=500.0)
    flows = [
        flow_between(network, (0, 4), (8, 4), volume=1200,
                     attractiveness=1.0, label="north-south artery"),
        flow_between(network, (4, 0), (4, 8), volume=800,
                     attractiveness=1.0, label="east-west artery"),
        flow_between(network, (0, 0), (8, 8), volume=500,
                     attractiveness=1.0, label="diagonal commute"),
    ]
    return Scenario(network, flows, shop=(3, 3),
                    utility=LinearUtility(3_000.0))


def main() -> None:
    scenario = build_scenario()

    # -- compile once, address by content ------------------------------
    artifact = ScenarioArtifact.compile(scenario)
    print(f"artifact {artifact.digest[:16]}…")
    print(f"  {artifact.stats['rows']} coverage rows, "
          f"{artifact.stats['incidences']} incidences, "
          f"{artifact.stats['nbytes']} packed bytes")

    # -- persist and restore: no Dijkstra on the reload path -----------
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(root)
        store.get_or_compile(scenario).save(root)
        restored = ScenarioArtifact.load(root, artifact.digest)
        print(f"  restored from disk: digest match = "
              f"{restored.digest == artifact.digest}\n")

        # -- serve it over HTTP and ask questions ----------------------
        engine = QueryEngine(restored)
        with ServerThread(engine) as handle:
            client = handle.client()

            health = client.healthz()
            print(f"serving on port {handle.port}: {health['status']}, "
                  f"artifact {health['digest'][:16]}…")

            placed = client.place(k=3)
            print(f"\nplace k=3 ({placed['algorithm']}):")
            print(f"  raps      = {placed['raps']}")
            print(f"  attracted = {placed['attracted']:.1f} customers/day")

            raps = placed["raps"]
            totals = client.evaluate([raps, raps[:2], raps[:1]])
            print("\nevaluate prefixes:")
            for prefix, total in zip((raps, raps[:2], raps[:1]), totals):
                print(f"  {len(prefix)} RAPs -> {total:8.1f}")

            delta = client.what_if(raps[:2], add=raps[2])
            print(f"\nwhat_if add {delta['site']}: "
                  f"{delta['base']:.1f} -> {delta['variant']:.1f} "
                  f"(delta {delta['delta']:+.1f})")

            gains = client.top_gains(placement=raps[:1], limit=3)["gains"]
            print("\ntop gains after the first RAP:")
            for entry in gains:
                print(f"  {entry['site']}: +{entry['gain']:.1f}")

            cache = client.healthz()["cache"]
            print(f"\nengine cache: {cache['entries']} of "
                  f"{cache['capacity']} replies held")


if __name__ == "__main__":
    main()
