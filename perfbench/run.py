#!/usr/bin/env python3
"""rapflow's benchmark of record: seeded serving workloads on one city.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 30 --trace 0

One run sets the fleet up four times (instance build, compile, place,
publish, spawn, all workers ready), measures on the last set-up, tears
everything down and checks every reply and the hygiene of the teardown.
It prints one provenance record and, as its last line, the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` turns on the
fleet's trace directory and an ``ObsContext`` in the fleet host, runs
the in-process layer probes, and reports the per-layer metrics.  See
``perfbench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import check
import layers
import load
import spans as span_fold
import workload

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 4
#: Seconds of closed loop before the timed phases, left out of every
#: figure but the availability: the first second after set-up runs about
#: a fifth slower, and each worker's first ``place`` computes its detour
#: fields (about 0.4 s) on its event loop.
WARMUP_S = 2.0
#: Share of ``--seconds`` spent in the closed loop; the open loop gets
#: the rest.
CLOSED_SHARE = 0.35
#: The timed load alternates this many closed-loop segments with as many
#: open-loop ones.  Throughput is the median over the closed segments,
#: so a stall of a shared host moves a few segments, not the figure.
SEGMENTS = 10
#: Open-loop arrival rate, requests per second: about a third of what
#: the closed loop completes on a two-core host, so no backlog builds up.
OPEN_RATE = 150.0
#: The planner's path is timed in-process after teardown:
#: ``planner.compile_s`` is the median of this many compiles and
#: ``planner.place_s`` of this many placements.
PLANNER_COMPILES = 5
PLANNER_PLACES = 15
#: Feed cycles the traced run feeds after its timed phases, with load
#: running, to time the streaming path and the swap.  The estimator
#: emits a window only once a journey ending after it closes, which
#: takes two cycles; each later cycle makes one refresh.
PROBE_CYCLES = 2 + 2
#: p99 of generator lateness above which the run is marked invalid.
GENERATOR_LATE_LIMIT_MS = 10.0
#: Stand-in for an infinite latency (a failed request) in the output.
INFINITE_MS = 1e12


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return math.inf
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _finite(value: float) -> float:
    return INFINITE_MS if math.isinf(value) else value


class Host:
    """The benchmark's handle on one fleet host process."""

    def __init__(self, run_dir: Path, index: int, seed: int, workers: int, trace: bool):
        self.run_dir = run_dir
        self.index = index
        self.ready = run_dir / f"ready-{index}.json"
        self.events_path = run_dir / f"events-{index}.jsonl"
        self.report_path = run_dir / f"report-{index}.json"
        self.log_path = run_dir / f"host-{index}.log"
        self.argv = [
            sys.executable, str(HERE / "fleet_host.py"),
            "--run-dir", str(run_dir), "--index", str(index),
            "--seed", str(seed), "--workers", str(workers),
            "--ready-file", str(self.ready), "--events", str(self.events_path),
            "--report", str(self.report_path),
        ] + (["--trace"] if trace else [])
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.digest = ""
        self.setup: Dict[str, object] = {}

    def start(self) -> float:
        """Spawn the host; returns seconds until every worker was ready."""
        started = time.monotonic()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                self.argv, stdin=subprocess.PIPE, stdout=log,
                stderr=subprocess.STDOUT, text=True, start_new_session=True,
            )
        while not self.ready.exists():
            if self.proc.poll() is not None or time.monotonic() - started > 120:
                raise RuntimeError(
                    f"fleet host {self.index} failed to come up:\n"
                    + self.log_path.read_text()[-4000:]
                )
            time.sleep(0.005)
        elapsed = time.monotonic() - started
        document = json.loads(self.ready.read_text())
        self.port = int(document["port"])
        self.digest = str(document["digest"])
        self.setup = document["setup"]
        return elapsed

    def send(self, **command: object) -> None:
        assert self.proc is not None and self.proc.stdin is not None
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def events(self) -> List[Dict[str, object]]:
        if not self.events_path.exists():
            return []
        return [json.loads(line) for line in self.events_path.read_text().splitlines() if line]

    def refreshes(self) -> List[Dict[str, object]]:
        return [event for event in self.events() if event["event"] == "refresh"]

    def fed(self) -> bool:
        return any(event["event"] == "fed" for event in self.events())

    def client(self):
        from repro.serve import ServeClient

        return ServeClient("127.0.0.1", self.port, timeout=30.0)

    def stop(self) -> Dict[str, object]:
        """Stop the feed, drain the fleet, and return the host's report."""
        assert self.proc is not None
        if self.trace:
            self.send(cmd="stop")
            deadline = time.monotonic() + 60.0
            while not any(e["event"] == "idle" for e in self.events()):
                if time.monotonic() > deadline:
                    raise RuntimeError(f"fleet host {self.index} did not stop its feed")
                time.sleep(0.01)
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=120)
        self.proc.stdin.close()
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"fleet host {self.index} exited with {self.proc.returncode}:\n"
                + self.log_path.read_text()[-4000:]
            )
        return json.loads(self.report_path.read_text())

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def provenance(root: Path, args, load_average) -> Dict[str, object]:
    import platform

    import numpy

    def git(*command: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *command], cwd=root, capture_output=True, text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return out.stdout.strip()

    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "load_average": list(load_average),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


class Run:
    def __init__(self, args, root: Path, run_dir: Path):
        self.args = args
        self.root = root
        self.run_dir = run_dir
        self.workers = len(os.sched_getaffinity(0))
        self.exchanges: List[load.Exchange] = []
        self.violations: List[str] = []
        self.hosts: List[Host] = []

    # -- load -------------------------------------------------------------
    def _closed(self, host: Host, stream, seconds: float, phase: str = "closed") -> float:
        return asyncio.run(
            load.closed_loop(
                "127.0.0.1", host.port, stream, self.workers, seconds, self.exchanges, phase
            )
        )

    def _open(self, host: Host, stream, seconds: float, phase: str, done=None) -> None:
        asyncio.run(
            load.open_loop(
                "127.0.0.1", host.port, stream, self.workers, OPEN_RATE,
                seconds, self.exchanges, phase=phase, done=done,
            )
        )

    def _teardown(self, host: Host, shm_before) -> Dict[str, object]:
        report = host.stop()
        leaked = check.shm_segments() - shm_before
        if leaked:
            self.violations.append(f"set-up {host.index} leaked {sorted(leaked)}")
        stragglers = check.processes_mentioning(str(self.run_dir))
        if stragglers:
            self.violations.append(f"set-up {host.index} left processes {stragglers}")
        return report

    def _probe_refreshes(self, host: Host, stream) -> None:
        """Feed with load running until the last refresh is served, to
        time the streaming path and the refresh lag."""
        host.send(cmd="feed", cycles=PROBE_CYCLES)
        checked = {"at": 0.0, "done": False}

        def done() -> bool:
            now = time.monotonic()
            if checked["done"] or now - checked["at"] < 0.05:
                return checked["done"]
            checked["at"] = now
            refreshes = host.refreshes()
            if host.fed() and refreshes:
                last = str(refreshes[-1]["new"]).encode()
                checked["done"] = any(
                    last in exchange.payload for exchange in self.exchanges[-20:]
                )
            return checked["done"]

        self._open(host, stream, 60.0, "probe", done=done)

    def _planner(self, artifact):
        """The planner's offline path, timed in this process with the
        fleet down: compile a fresh scenario of the city, then place
        ``k`` RAPs on it with the served default algorithm."""
        import gc

        from fleet_host import compile_stages
        from repro.algorithms import algorithm_by_name

        gc.collect()
        compiles, places = [], []
        for _ in range(PLANNER_COMPILES):
            scenario = workload.build_scenario(
                artifact.scenario.network, artifact.scenario.flows
            )
            compiled, stages = compile_stages(scenario)
            compiles.append(stages["compile_s"])
        algorithm = algorithm_by_name(workload.SERVED_ALGORITHM)
        for _ in range(PLANNER_PLACES):
            t0 = time.perf_counter()
            placement = algorithm.place(compiled.scenario, workload.PLACE_K)
            places.append(time.perf_counter() - t0)
        if compiled.digest != artifact.digest or [
            list(site) for site in placement.raps
        ] != self.hosts[0].setup["placement"]:
            self.violations.append("the planner's compile or placement differs")
        return compiles, places

    # -- the run ----------------------------------------------------------
    def execute(self) -> Dict[str, object]:
        from repro.serve import QueryEngine, ScenarioArtifact

        args = self.args
        record = provenance(self.root, args, os.getloadavg())
        shm_before = check.shm_segments()
        setup_times: List[float] = []
        reports: List[Dict[str, object]] = []
        baseline: List[load.Exchange] = []
        artifact = None
        stream = None
        try:
            for index in range(SETUPS):
                host = Host(self.run_dir, index, args.seed, self.workers,
                            trace=bool(args.trace) and index == SETUPS - 1)
                self.hosts.append(host)
                setup_times.append(host.start())
                if artifact is None:
                    artifact = ScenarioArtifact.load(self.run_dir / "artifacts", host.digest)
                    sites = [list(site) for site in artifact.scenario.coverage.packed().nodes]
                    stream = workload.request_stream(args.workload, args.seed, sites)
                if index < SETUPS - 1:
                    if args.trace and index == SETUPS - 2:
                        # Untraced open-loop baseline for the tracing overhead.
                        start = len(self.exchanges)
                        self._open(host, stream, args.seconds * (1 - CLOSED_SHARE) / 2, "baseline")
                        baseline = self.exchanges[start:]
                    reports.append(self._teardown(host, shm_before))
            live = self.hosts[-1]
            self._closed(live, stream, WARMUP_S, "warmup")
            segments = []
            for _ in range(SEGMENTS):
                start = len(self.exchanges)
                elapsed = self._closed(live, stream, args.seconds * CLOSED_SHARE / SEGMENTS)
                segments.append((start, len(self.exchanges), elapsed))
                self._open(live, stream, args.seconds * (1 - CLOSED_SHARE) / SEGMENTS, "open")
            health = live.client().healthz()
            metrics_doc = live.client().metrics()
            if args.trace:
                self._probe_refreshes(live, stream)
            record["fleet_counters"] = live.client().metrics()["counters"]
            reports.append(self._teardown(live, shm_before))
        finally:
            for host in self.hosts:
                host.kill()

        # -- output checks --------------------------------------------------
        engines: Dict[str, QueryEngine] = {}

        def reference(digest: str, request: Dict[str, object]) -> Dict[str, object]:
            if digest not in engines:
                engines[digest] = QueryEngine(
                    ScenarioArtifact.load(self.run_dir / "artifacts", digest),
                    cache_size=1_000_000,
                )
            return engines[digest].handle(request)

        refreshes = reports[-1].get("refreshes", [])
        verdicts = check.check_replies(self.exchanges, reference, self.hosts[0].digest, refreshes)
        digests = {host.digest for host in self.hosts}
        placements = {json.dumps(host.setup["placement"]) for host in self.hosts}
        if len(digests) != 1 or len(placements) != 1:
            self.violations.append(
                f"set-ups disagree: {len(digests)} digests, {len(placements)} placements"
            )

        # -- end-to-end -----------------------------------------------------
        ok = [
            exchange.status == 200 and not bad
            for exchange, bad in zip(self.exchanges, verdicts["bad"])
        ]
        rates = [sum(ok[first:last]) / elapsed for first, last, elapsed in segments]
        open_latency = [
            (e.received - e.due) if good else math.inf
            for e, good in zip(self.exchanges, ok) if e.phase == "open"
        ]
        lags = []
        for event in refreshes:
            new = str(event["new"]).encode()
            seen = [
                e.received for e in self.exchanges
                if e.received >= float(event["t_close"]) and new in e.payload
            ]
            if seen:
                lags.append(min(seen) - float(event["t_close"]))
        setups = [host.setup for host in self.hosts]
        engines.clear()
        compiles, places = self._planner(artifact)
        throughput = (statistics.median(rates), "1/s")
        end_to_end = {
            "setup_s": (statistics.median(setup_times), "s"),
            "latency_p50_ms": (_finite(_percentile(open_latency, 0.50) * 1000.0), "ms"),
            "availability": (sum(ok) / max(1, len(ok)), "ratio"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        }

        # -- workload properties --------------------------------------------
        bodies = [e.body for e in self.exchanges if e.phase != "baseline"]
        late = [
            (e.queued - e.due) * 1000.0
            for e in self.exchanges if e.phase in ("open", "probe")
        ]
        generator_late_ms = _percentile(late, 0.99) if late else 0.0
        first = setups[0]
        record.update(
            instance={
                "nodes": artifact.scenario.network.node_count,
                "flows": len(artifact.scenario.flows),
                "incidences": first["incidences"],
                "artifact_bytes": first["artifact_bytes"],
                "digest": self.hosts[0].digest,
                "placement_attracted": first["attracted"],
            },
            workload_properties={
                "requests": len(bodies),
                "kind_shares": workload.kind_shares(bodies),
                "repeat_share": workload.repeat_share(bodies),
                "generator_late_ms": generator_late_ms,
                "valid": generator_late_ms <= GENERATOR_LATE_LIMIT_MS,
                "open_rate": OPEN_RATE,
                "connections": self.workers,
                "refreshes": len(refreshes),
                "refresh_lags_s": lags,
            },
            checks={
                "failed": verdicts["failed"],
                "degraded": verdicts["degraded"],
                "wrong": verdicts["wrong"],
                "stale": verdicts["stale"],
                "violations": self.violations,
            },
            end_to_end={name: value for name, (value, _) in end_to_end.items()},
            latency_p99_ms=_finite(_percentile(open_latency, 0.99) * 1000.0),
            throughput_rps=throughput[0],
            setup_stages={
                key: statistics.median(float(s[key]) for s in setups)
                for key, value in first.items()
                if key.endswith("_s")
            },
            setup_seconds=setup_times,
            throughput_segments=rates,
            planner={"compile_s": compiles, "place_s": places},
        )
        if not record["workload_properties"]["valid"]:
            print(
                f"perfbench: generator fell behind (p99 {generator_late_ms:.2f} ms); "
                "run marked invalid", file=sys.stderr,
            )

        if args.trace:
            chosen = self._per_layer(
                record, artifact, bodies, reports, health, metrics_doc, baseline,
                open_latency, generator_late_ms, lags, compiles, places,
            )
            chosen["throughput_rps"] = throughput
        else:
            chosen = end_to_end
        attempted = len(self.exchanges) + SETUPS
        failed = (
            verdicts["failed"] + verdicts["degraded"] + verdicts["wrong"] + verdicts["stale"]
            + len(self.violations)
        )
        return {
            "record": record,
            "final": {
                "correct": verdicts["wrong"] + verdicts["stale"] + len(self.violations) == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
                },
            },
        }

    def _per_layer(self, record, artifact, bodies, reports, health, metrics_doc,
                   baseline, open_latency, generator_late_ms, lags, compiles, places):
        from repro.obs import load_traces

        traces = load_traces(self.run_dir / "trace")
        all_spans = [span for trace in traces.values() for span in trace.spans.values()]
        folded = span_fold.fold(all_spans)
        record["spans"] = {
            name: {
                "count": len(entry["self"]),
                "self_ms": span_fold.median_ms(entry["self"]),
                "wait_ms": span_fold.median_ms(entry["wait"]),
            }
            for name, entry in sorted(folded.items())
        }
        live_report = reports[-1]
        setups = [host.setup for host in self.hosts]
        shard = health["shards"][health["digest"]]
        batching = {"flushes": 0, "requests": 0, "placements": 0, "deduped": 0, "bypassed": 0}
        restores = []
        for worker in shard["workers"]:
            doc = worker.get("health") or {}
            for key, value in (doc.get("batching") or {}).items():
                batching[key] += int(value)
            restore = doc.get("restore") or {}
            if "seconds" in restore:
                restores.append(float(restore["seconds"]))
        front = shard.get("front_batching") or {}
        counters = metrics_doc["counters"]
        served = max(1, int(counters["served"]))
        # Read after the swaps, unlike ``counters``: a swap is where the
        # fleet has refused requests.
        final = record["fleet_counters"]
        answered = int(final["served"]) + int(final["degraded"]) + int(final["rejected"])
        baseline_p50 = _percentile([e.received - e.due for e in baseline if e.status == 200], 0.5)
        feed = live_report["feed"]

        def median_of(key: str) -> float:
            return statistics.median(float(s[key]) for s in setups)

        metrics = {
            "fleet.front_self_ms": (span_fold.median_ms(folded["front.request"]["self"]), "ms"),
            "fleet.hop_ms": (span_fold.median_ms(span_fold.hops(all_spans)), "ms"),
            "fleet.front_dedup_ratio": (
                int(front.get("deduped", 0)) / max(1, int(front.get("placements", 0))), "ratio"),
            "fleet.retry_ratio": (int(counters["retries"]) / served, "ratio"),
            "fleet.degraded_ratio": (int(counters["degraded"]) / served, "ratio"),
            "fleet.rejected_ratio": (int(final["rejected"]) / max(1, answered), "ratio"),
            "fleet.swap_s": (
                statistics.median(live_report["swap_s"]) if live_report["swap_s"] else 0.0, "s"),
            "fleet.spawn_ready_s": (median_of("spawn_ready_s"), "s"),
            "server.worker_self_ms": (
                span_fold.median_ms(folded["worker.request"]["self"]), "ms"),
            "batching.bypass_ratio": (
                batching["bypassed"] / max(1, batching["requests"]), "ratio"),
            "batching.dedup_ratio": (
                batching["deduped"] / max(1, batching["placements"]), "ratio"),
            "batching.batch_size": (
                batching["requests"] / max(1, batching["flushes"] + batching["bypassed"]),
                "count"),
            "batching.flush_ms": (
                span_fold.median_ms(
                    [s.duration for s in all_spans if s.name == "engine.evaluate"]), "ms"),
        }
        for name, value in layers.engine_replay(artifact, bodies).items():
            metrics[name] = (value, "ratio" if name.endswith("ratio") else "ms")
        metrics.update({
            name: (value, "us" if name.endswith("_us") else "ms")
            for name, value in layers.kernel_probe(artifact, bodies).items()
        })
        for name, value in layers.algorithm_probe(artifact).items():
            unit = "s" if name.startswith("algorithms.") else (
                "ratio" if name.endswith("ratio") else "count")
            metrics[name] = (value, unit)
        metrics.update({
            "kernel.pack_s": (median_of("pack_s"), "s"),
            "kernel.csr_bytes": (float(setups[0]["csr_bytes"]), "bytes"),
            "graphs.generate_s": (
                statistics.median(s["network_s"] + s["routes_s"] for s in setups), "s"),
            "detour.dijkstra_s": (median_of("dijkstra_s"), "s"),
            "coverage.build_s": (median_of("coverage_s"), "s"),
            "coverage.incidences": (float(setups[0]["incidences"]), "count"),
            "shm.publish_s": (median_of("publish_s"), "s"),
            "shm.attach_s": (median_of("attach_s"), "s"),
            "shm.worker_restore_s": (
                statistics.median(restores) if restores else 0.0, "s"),
            "stream.journal_append_us": (feed["journal_append_us"] or 0.0, "us"),
            "stream.segment_us": (feed["segment_us"] or 0.0, "us"),
            "stream.fold_us": (feed["fold_us"] or 0.0, "us"),
            "stream.refresh_s": (feed["refresh_s"] or 0.0, "s"),
            "stream.refreshes": (float(feed["refreshes"]), "count"),
            "stream.refresh_lag_s": (statistics.median(lags) if lags else 0.0, "s"),
            "obs.traced_p50_ratio": (
                _percentile([lat for lat in open_latency if not math.isinf(lat)], 0.5)
                / baseline_p50, "ratio"),
            "planner.compile_s": (statistics.median(compiles), "s"),
            "planner.place_s": (statistics.median(places), "s"),
            "workload.repeat_share": (workload.repeat_share(bodies), "ratio"),
            "workload.generator_late_ms": (generator_late_ms, "ms"),
        })
        for name, value in layers.patch_probe(artifact).items():
            metrics[name] = (value, "s")
        return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no rapflow sources under ./src; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source), os.environ.get("PYTHONPATH")])
    )
    run_dir = root / ".perfbench-run" / f"{args.workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = Run(args, root, run_dir).execute()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result["record"], sort_keys=True))
    print(json.dumps(result["final"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
