#!/usr/bin/env python3
"""Time and size the set-up of a scaled copy of the benchmark city.

Run from the repository root::

    python3 scripts/probe_city_compile.py 28    # the benchmark's own city
    python3 scripts/probe_city_compile.py 100   # 10,000 intersections

``SIDE`` is the number of rows and columns of the Dublin-like street
grid.  The city is perfbench's (``perfbench/workload.py``) scaled by
``SIDE / 28``: the extent and the utility threshold grow by that
factor and the route count by its square, so the density of routes per
intersection stays the benchmark's.  The probe runs the fleet front's
set-up stages in order, in this one process: generate the network and
the routes, warm up the detour calculator, build the coverage index,
compile the artifact, place ``PLACE_K`` sites with the served
algorithm, save, load the modules the front serves with, then publish
to shared memory, attach and detach.  A last stage, which the front
does not run, restores the saved directory from disk (``load``), as a
server restarted over its cache does.  It saves and publishes into a
temporary directory and pool that it removes.  At ``SIDE`` 28
``attach_peak_mb`` comes within about 1 MB of the benchmark's
``peak_rss_mb``.

It prints one JSON row: the instance's size (nodes, routes, distinct
destinations, coverage incidences, the bytes of the artifact's
canonical spec text), the placement's attracted value, and for each
stage its seconds (``<stage>_s``), the resident memory after it
(``<stage>_rss_mb``) and the process's high-water mark after it
(``<stage>_peak_mb``), in MB.  Memory is read from this process only,
so run one size per process.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, TypeVar

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCHMARK_SIDE = 28
#: What the fleet front imports after saving and before publishing.
SERVING_MODULES = ("asyncio", "repro.cli", "repro.serve.fleet", "repro.stream")

T = TypeVar("T")


def _peak_mb() -> float:
    """This process's resident high-water mark, in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe(side: int) -> Dict[str, object]:
    """Run every set-up stage on the city of ``side`` x ``side``."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    import workload

    from repro.algorithms import algorithm_by_name
    from repro.core import TrafficFlow, utility_by_name
    from repro.graphs import dublin_like_city
    from repro.serve import ScenarioArtifact
    from repro.serve.shm import ShmArtifactPool, memory_probe
    from repro.traces import generate_patterns

    def rss_mb() -> float:
        return memory_probe()["rss_bytes"] / 2.0**20  # type: ignore[operator]

    scale = side / BENCHMARK_SIDE
    row: Dict[str, object] = {"side": side}

    def stage(name: str, run: Callable[[], T]) -> T:
        started = time.perf_counter()
        result = run()
        row[f"{name}_s"] = round(time.perf_counter() - started, 4)
        row[f"{name}_rss_mb"] = round(rss_mb(), 1)
        row[f"{name}_peak_mb"] = round(_peak_mb(), 1)
        return result

    row["start_rss_mb"] = round(rss_mb(), 1)
    network = stage(
        "network",
        lambda: dublin_like_city(
            side,
            side,
            extent=workload.CITY_EXTENT_FEET * scale,
            seed=workload.CITY_SEED,
        ),
    )
    patterns = stage(
        "routes",
        lambda: generate_patterns(
            network,
            round(workload.ROUTE_COUNT * scale * scale),
            random.Random(workload.ROUTE_SEED),
        ),
    )
    flows = [
        TrafficFlow(
            pattern.path,
            pattern.daily_buses * workload.PASSENGERS_PER_BUS,
            label=pattern.pattern_id,
        )
        for pattern in patterns
    ]
    scenario = workload.build_scenario(network, flows).with_utility(
        utility_by_name(workload.UTILITY, workload.THRESHOLD_FEET * scale)
    )
    stage("warm_up", lambda: scenario.detour_calculator.warm_up(flows))
    coverage = stage("coverage", lambda: scenario.coverage)
    artifact = stage("compile", lambda: ScenarioArtifact.compile(scenario))
    placement = stage(
        "place",
        lambda: algorithm_by_name(workload.SERVED_ALGORITHM).place(
            artifact.scenario, workload.PLACE_K
        ),
    )
    with tempfile.TemporaryDirectory(prefix="probe-city-") as scratch:
        saved = Path(scratch) / "artifacts"
        stage("save", lambda: artifact.save(saved))
        # The front loads its serving modules after it saves and before
        # it publishes, so publish and attach start from its footprint.
        stage("imports", lambda: [*map(importlib.import_module, SERVING_MODULES)])
        pool = ShmArtifactPool(Path(scratch) / "shm")
        try:
            stage("publish", lambda: pool.publish(artifact))

            def attach_and_detach() -> None:
                ScenarioArtifact.attach(pool, artifact.digest)
                pool.detach(artifact.digest)

            stage("attach", attach_and_detach)
        finally:
            pool.detach_all()
            pool.unlink_all()
        stage("load", lambda: ScenarioArtifact.load(saved, artifact.digest))
    row.update(
        nodes=network.node_count,
        routes=len(flows),
        destinations=len({flow.destination for flow in flows}),
        incidences=coverage.incidence_count(),
        spec_text_bytes=len(artifact.spec_text),
        attracted=placement.attracted,
    )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "side", type=int, help="rows and columns of the grid (28: the benchmark's)"
    )
    args = parser.parse_args()
    if args.side < 2:
        parser.error("SIDE must be at least 2")
    print(json.dumps(probe(args.side)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
