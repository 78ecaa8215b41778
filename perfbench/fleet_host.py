"""The fleet front process, as ``rapflow serve --workers N --shm`` runs it.

The CLI can only serve its built-in cities, so the benchmark hosts the
same topology itself on the benchmark's city: it builds and compiles the
scenario, saves and publishes the artifact, and starts a
:class:`~repro.serve.PlacementFleet` of ``python -m repro serve
--shm-attach`` subprocess workers with the fleet settings the CLI
parser ships as defaults.  With ``--trace`` the host also runs the
operator's streaming path next to the front — ``JourneyJournal`` →
``JourneySegmenter`` → ``WindowedEstimator`` → ``StreamRefresher`` — fed
by a seeded GPS feed on command.

Protocol with the benchmark process:

* ``--ready-file`` receives ``{"port", "digest", "setup"}`` once every
  worker is up;
* with ``--trace``, stdin takes JSON lines ``{"cmd": "feed", "cycles":
  n}`` (feed the next ``n`` cycles as fast as the path takes them) and
  ``{"cmd": "stop"}`` (finish the refresh in progress, then idle);
  every refresh, the end of a feed and the idle acknowledgement are
  appended to ``--events`` as JSON lines, stamped with
  ``time.monotonic()``;
* SIGTERM drains the fleet, unlinks every shared-memory segment, saves
  each refreshed artifact next to the first one, and writes
  ``--report``.

Run it only through ``run.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import workload


def _median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def compile_stages(scenario):
    """Compile ``scenario`` stage by stage; returns ``(artifact, timings)``.

    The stages are the ones :meth:`ScenarioArtifact.compile` runs
    implicitly (detour fields, coverage index, CSR pack, kernel warm-up);
    calling them first in order only makes their cost visible.
    """
    from repro.serve import ScenarioArtifact

    t0 = time.perf_counter()
    scenario.detour_calculator.warm_up(list(scenario.flows))
    t1 = time.perf_counter()
    coverage = scenario.coverage
    t2 = time.perf_counter()
    packed = coverage.packed()
    t3 = time.perf_counter()
    artifact = ScenarioArtifact.compile(scenario)
    t4 = time.perf_counter()
    return artifact, {
        "dijkstra_s": t1 - t0,
        "coverage_s": t2 - t1,
        "pack_s": t3 - t2,
        "warm_s": t4 - t3,
        "compile_s": t4 - t0,
        "incidences": coverage.incidence_count(),
        "csr_bytes": packed.nbytes,
    }


def compile_city(run_dir: Path):
    """Generate and compile the city, then place on it as a planner would."""
    from repro.algorithms import algorithm_by_name

    network, flows, timings = workload.build_city()
    artifact, stages = compile_stages(workload.build_scenario(network, flows))
    timings.update(stages)
    t0 = time.perf_counter()
    placement = algorithm_by_name(workload.SERVED_ALGORITHM).place(
        artifact.scenario, workload.PLACE_K
    )
    timings["place_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    artifact.save(run_dir / "artifacts")
    timings["save_s"] = time.perf_counter() - t0
    timings["placement"] = [list(site) for site in placement.raps]
    timings["attracted"] = placement.attracted
    return network, artifact, timings


class Feed:
    """The operator's streaming path over the seeded GPS feed."""

    def __init__(self, seed, routes, journal_dir, refresher, events_path):
        from repro.stream import JourneyJournal, JourneySegmenter, WindowedEstimator

        self._seed = seed
        self._routes = routes
        self._journal = JourneyJournal(journal_dir)
        self._segmenter = JourneySegmenter()
        self._estimator = WindowedEstimator(workload.FEED_CYCLE_SECONDS)
        self._refresher = refresher
        self._events_path = events_path
        self._cycle = 0
        self.stop = threading.Event()
        self.append_s: List[float] = []
        self.segment_s: List[float] = []
        self.fold_s: List[float] = []
        self.refreshes: List[Dict[str, object]] = []
        self.artifacts: Dict[str, object] = {}

    def event(self, payload: Dict[str, object]) -> None:
        with open(self._events_path, "a") as handle:
            handle.write(json.dumps(payload) + "\n")

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            for record in workload.feed_cycle(self._seed, self._cycle, self._routes):
                if self.stop.is_set():
                    return
                self._feed(record)
            self._cycle += 1
        self.event({"event": "fed", "t": time.monotonic()})

    def _feed(self, record) -> None:
        t0 = time.perf_counter()
        self._journal.append(record)
        t1 = time.perf_counter()
        self._segmenter.observe(record)
        closed = self._segmenter.poll_closed()
        t2 = time.perf_counter()
        self.append_s.append(t1 - t0)
        self.segment_s.append(t2 - t1)
        deltas = []
        for journey in closed:
            t0 = time.perf_counter()
            deltas.extend(self._estimator.observe(journey))
            self.fold_s.append(time.perf_counter() - t0)
        if deltas:
            self._refresh(deltas)

    def _refresh(self, deltas) -> None:
        t_close = time.monotonic()
        result = self._refresher.refresh(deltas)
        t_end = time.monotonic()
        if result.new_digest != result.old_digest:
            self.artifacts[result.new_digest] = self._refresher.artifact
        record = {
            "event": "refresh",
            "t_close": t_close,
            "t_end": t_end,
            "old": result.old_digest,
            "new": result.new_digest,
            "seconds": result.seconds,
            "flows_changed": result.flows_changed,
            "swap_s": (result.swap or {}).get("seconds"),
        }
        self.refreshes.append(record)
        self.event(record)

    def stats(self) -> Dict[str, object]:
        return {
            "journal_append_us": _median([t * 1e6 for t in self.append_s]),
            "segment_us": _median([t * 1e6 for t in self.segment_s]),
            "fold_us": _median([t * 1e6 for t in self.fold_s]),
            "records": len(self.append_s),
            "refresh_s": _median([float(r["seconds"]) for r in self.refreshes]),
            "refreshes": len(self.refreshes),
        }


def _commands(feed: Feed, loop, stop_serving: asyncio.Event) -> None:
    """Serve stdin commands until EOF (the benchmark process went away)."""
    worker: Optional[threading.Thread] = None
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "feed":
            feed.stop.clear()
            worker = threading.Thread(
                target=feed.run,
                args=(int(command["cycles"]),),
                name="feed",
            )
            worker.start()
        elif command["cmd"] == "stop":
            feed.stop.set()
            if worker is not None:
                worker.join()
                worker = None
            feed.event({"event": "idle", "t": time.monotonic()})
    feed.stop.set()
    if worker is not None:
        worker.join()
    loop.call_soon_threadsafe(stop_serving.set)


async def serve(args, artifact, network, timings, report) -> None:
    from repro.cli import _build_parser
    from repro.serve import FleetConfig, PlacementFleet, ProcessWorker, ScenarioArtifact
    from repro.serve.shm import ShmArtifactPool
    from repro.stream import StreamRefresher

    run_dir = Path(args.run_dir)
    pool = ShmArtifactPool(run_dir / "shm")
    t0 = time.perf_counter()
    manifest = pool.publish(artifact)
    timings["publish_s"] = time.perf_counter() - t0
    timings["artifact_bytes"] = manifest.nbytes
    t0 = time.perf_counter()
    ScenarioArtifact.attach(pool, artifact.digest)
    timings["attach_s"] = time.perf_counter() - t0
    pool.detach(artifact.digest)

    # The shipped defaults, read from the CLI's own parser.
    cli = _build_parser().parse_args(
        ["serve", "--workers", str(args.workers), "--shm"]
    )
    trace_dir = str(run_dir / "trace") if args.trace else None
    generations: List[str] = []

    def factory_for(version):
        # Each artifact version gets its own ready directory and worker
        # labels.  A swap spawns the incoming shard while the outgoing
        # one may respawn a worker; with shared labels both would wait
        # on the same ready file and could read each other's port, and
        # their trace span ids would collide.
        generation = f"v{len(generations)}"
        generations.append(version.digest)
        ready_dir = run_dir / f"workers-{args.index}" / generation
        ready_dir.mkdir(parents=True, exist_ok=True)
        worker_args = [
            "--shm-attach", version.digest, "--shm-dir", str(pool.root),
        ]
        if trace_dir is not None:
            worker_args += ["--trace-dir", trace_dir]

        def factory(index: int) -> ProcessWorker:
            return ProcessWorker(f"{generation}w{index}", worker_args, ready_dir)

        return factory

    config = FleetConfig(
        workers=cli.workers,
        host=cli.host,
        port=cli.port,
        max_inflight=cli.max_inflight,
        timeout=cli.timeout,
        front_batch_window=cli.front_batch_window,
        front_max_batch=cli.max_batch,
        front_bypass=cli.bypass_threshold,
        trace_dir=trace_dir,
    )
    fleet = PlacementFleet(factory_for(artifact), digest=artifact.digest, config=config)
    loop = asyncio.get_running_loop()
    stop_serving = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop_serving.set)
    feed: Optional[Feed] = None
    try:
        t0 = time.perf_counter()
        await fleet.start()
        timings["spawn_ready_s"] = time.perf_counter() - t0
        try:
            ready = Path(args.ready_file)
            partial = ready.with_suffix(".tmp")
            partial.write_text(
                json.dumps(
                    {"port": fleet.port, "digest": artifact.digest, "setup": timings}
                )
            )
            partial.rename(ready)
            if args.trace:
                refresher = StreamRefresher(
                    artifact,
                    pool=pool,
                    fleet=fleet,
                    worker_factory_for=factory_for,
                    passengers_per_bus=workload.FEED_PASSENGERS_PER_BUS,
                )
                feed = Feed(
                    args.seed,
                    workload.feed_routes(network, artifact.scenario.flows),
                    run_dir / f"journal-{args.index}",
                    refresher,
                    args.events,
                )
                commands = threading.Thread(
                    target=_commands,
                    args=(feed, loop, stop_serving),
                    name="commands",
                    daemon=True,
                )
                commands.start()
            await stop_serving.wait()
            if feed is not None:
                feed.stop.set()
        finally:
            await fleet.shutdown()
    finally:
        pool.unlink_all()
    if feed is not None:
        for version in feed.artifacts.values():
            version.save(run_dir / "artifacts")
        report["feed"] = feed.stats()
        report["refreshes"] = feed.refreshes


def _swap_spans(span) -> List[float]:
    found = [span.duration] if span.name == "fleet.swap" else []
    for child in span.children:
        found.extend(_swap_spans(child))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--ready-file", required=True)
    parser.add_argument("--events", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()

    from repro.obs import ObsContext

    report: Dict[str, object] = {}
    context = ObsContext() if args.trace else contextlib.nullcontext()
    with context:
        network, artifact, timings = compile_city(Path(args.run_dir))
        report["setup"] = timings
        asyncio.run(serve(args, artifact, network, timings, report))
    if args.trace:
        report["swap_s"] = _swap_spans(context.root)
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    partial = Path(args.report + ".tmp")
    partial.write_text(json.dumps(report))
    os.replace(partial, args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
