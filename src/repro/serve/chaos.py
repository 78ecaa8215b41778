"""Chaos harness: drive a serving fleet through injected failure.

:func:`run_chaos` stands up a :class:`~repro.serve.fleet.PlacementFleet`
of in-process workers over one compiled artifact, fires a concurrent
request load at the front, and — at seeded points in the request stream
— applies a failure schedule: worker **kills** (abrupt, no drain),
event-loop **stalls** (the wedged-worker failure mode), **slow** replies
and **corrupt** replies (via the workers' seeded
:class:`~repro.reliability.FaultInjector`, whose decisions are pure
functions of ``(seed, request index)``).

The harness then measures what a resilient fleet must guarantee:

* **availability** — fraction of requests answered 200 per kind, with
  degraded (cache-replayed) answers tallied separately;
* **bit-identity** — every non-degraded ``evaluate`` answer is compared
  against totals computed by direct library calls; any mismatch is a
  correctness failure, not a statistics blip;
* **recovery** — respawn and corruption-detection counts read back from
  the fleet's ``/healthz``.

Every request outcome and applied event is optionally appended to a
JSONL file (the slow chaos tests read it back), and the whole run is
deterministic in its injected decisions: schedules and request mixes
derive from ``seed`` alone, never from the wall clock (lint rule RAP002
covers this module).
"""

from __future__ import annotations

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union, cast

from ..errors import ServeClientError, ServeError, ServeRequestError
from ..reliability.faults import FaultConfig, FaultInjector
from .artifacts import ScenarioArtifact
from .client import ServeClient
from .engine import QueryEngine, decode_site
from .fleet import FleetConfig, PlacementFleet, RetryPolicy, local_worker_factory
from .testing import FleetThread

#: Failure presets the harness understands.
CHAOS_PRESETS = ("kill", "stall", "slow", "corrupt", "mixed")

#: Share of the request stream per kind (evaluate-heavy, like the bench).
_KIND_WEIGHTS = (("evaluate", 0.90), ("top_gains", 0.05), ("place", 0.05))


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled failure: fired when request ``at_fraction`` of the
    stream is dispatched."""

    at_fraction: float
    action: str  # "kill" | "stall"
    target: int  # worker slot index
    duration: float = 0.0  # stall length in seconds

    def trigger_index(self, total_requests: int) -> int:
        """The dispatch index at which this event fires."""
        return max(0, min(total_requests - 1, int(self.at_fraction * total_requests)))


def fault_config_for(preset: str) -> Optional[FaultConfig]:
    """The worker-side fault rates a preset injects (None = clean)."""
    if preset == "slow":
        return FaultConfig(
            request_delay_rate=0.2, request_delay_seconds=0.02
        )
    if preset == "corrupt":
        return FaultConfig(request_corrupt_rate=0.08)
    if preset == "mixed":
        return FaultConfig(
            request_delay_rate=0.1,
            request_delay_seconds=0.01,
            request_corrupt_rate=0.04,
        )
    if preset in ("kill", "stall"):
        return None
    raise ServeRequestError(
        f"unknown chaos preset {preset!r}; expected one of {CHAOS_PRESETS}"
    )


def build_schedule(
    preset: str, workers: int, seed: int
) -> List[ChaosEvent]:
    """The seeded failure schedule for ``preset`` over ``workers`` slots.

    Deterministic: the same ``(preset, workers, seed)`` always yields
    the same events, so a chaos run replays exactly.
    """
    if preset not in CHAOS_PRESETS:
        raise ServeRequestError(
            f"unknown chaos preset {preset!r}; expected one of "
            f"{CHAOS_PRESETS}"
        )
    rng = random.Random(seed)
    targets = list(range(workers))
    rng.shuffle(targets)
    second = targets[1 % len(targets)]
    if preset == "kill":
        return [
            ChaosEvent(0.25, "kill", targets[0]),
            ChaosEvent(0.50, "kill", second),
        ]
    if preset == "stall":
        return [ChaosEvent(0.30, "stall", targets[0], duration=0.8)]
    if preset == "mixed":
        return [
            ChaosEvent(0.20, "kill", targets[0]),
            ChaosEvent(0.55, "stall", second, duration=0.8),
        ]
    return []  # slow / corrupt act through the fault injector alone


@dataclass
class ChaosResult:
    """Outcome of one chaos run (see :meth:`availability`)."""

    preset: str
    seed: int
    workers: int
    concurrency: int
    requests: int
    sent: Dict[str, int] = field(default_factory=dict)
    ok: Dict[str, int] = field(default_factory=dict)
    degraded: int = 0
    mismatches: int = 0
    corrupt_detected: int = 0
    respawns: int = 0
    retries: int = 0
    shed: Dict[str, int] = field(default_factory=dict)
    events_applied: List[Dict[str, object]] = field(default_factory=list)
    worker_states: List[str] = field(default_factory=list)
    #: The fleet's async-sanitizer tallies (None unless RAPFLOW_SANITIZE
    #: was set for the run) — the slow chaos tests assert zero
    #: violations on it.
    sanitizer: Optional[Dict[str, object]] = None
    #: Shared-memory plane summary when the run attached workers over
    #: shm (``via_shm=True``): segment name, attach count, and whether
    #: the segment leaked past cleanup — the shm chaos test asserts
    #: ``leaked`` false.
    shm: Optional[Dict[str, object]] = None
    #: The front's SLO snapshot (error-budget burn rates per window),
    #: read back from ``/healthz`` after the load completes.
    slo: Optional[Dict[str, object]] = None
    #: Trace ids of every degraded (cache-replayed) reply, in arrival
    #: order — present only when the run traced (``trace_dir`` set).
    #: Each id resolves to a full cross-process tree via
    #: ``rapflow trace <id> --trace-dir <dir>``.
    degraded_trace_ids: List[str] = field(default_factory=list)

    def availability(self, kind: str = "evaluate") -> float:
        """Fraction of ``kind`` requests answered 200 (1.0 if none sent)."""
        sent = self.sent.get(kind, 0)
        if sent == 0:
            return 1.0
        return self.ok.get(kind, 0) / sent

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the bench and CLI both emit this)."""
        return {
            "preset": self.preset,
            "seed": self.seed,
            "workers": self.workers,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "sent": dict(self.sent),
            "ok": dict(self.ok),
            "availability": {
                kind: self.availability(kind) for kind in self.sent
            },
            "degraded": self.degraded,
            "mismatches": self.mismatches,
            "corrupt_detected": self.corrupt_detected,
            "respawns": self.respawns,
            "retries": self.retries,
            "shed": dict(self.shed),
            "events_applied": list(self.events_applied),
            "worker_states": list(self.worker_states),
            "sanitizer": self.sanitizer,
            "shm": self.shm,
            "slo": self.slo,
            "degraded_trace_ids": list(self.degraded_trace_ids),
        }


def _build_pool(
    reference: QueryEngine, pool_size: int, k: int
) -> List[List[object]]:
    """Plausible hot placements from the reference engine's top gains."""
    response = reference.handle(
        {"kind": "top_gains", "placement": [], "limit": pool_size + k}
    )
    sites = [entry["site"] for entry in response["gains"]]
    if len(sites) < k:
        raise ServeError(
            f"scenario offers only {len(sites)} candidate sites; chaos "
            f"needs at least {k}"
        )
    pool = []
    for start in range(max(1, min(pool_size, len(sites)))):
        pool.append([sites[(start + j) % len(sites)] for j in range(k)])
    return pool


def _build_requests(
    pool: Sequence[Sequence[object]], total: int, seed: int
) -> List[Dict[str, object]]:
    """The seeded request stream: evaluate-heavy."""
    rng = random.Random(seed * 1_000_003 + 17)
    stream: List[Dict[str, object]] = []
    for _ in range(total):
        roll = rng.random()
        cumulative = 0.0
        kind = _KIND_WEIGHTS[-1][0]
        for name, weight in _KIND_WEIGHTS:
            cumulative += weight
            if roll < cumulative:
                kind = name
                break
        if kind == "evaluate":
            pool_index = rng.randrange(len(pool))
            stream.append(
                {
                    "kind": "evaluate",
                    "placements": [list(pool[pool_index])],
                    "_pool_index": pool_index,
                }
            )
        elif kind == "top_gains":
            stream.append(
                {
                    "kind": "top_gains",
                    "placement": [],
                    "limit": 4,
                }
            )
        else:
            stream.append(
                {
                    "kind": "place",
                    "algorithm": "composite-greedy",
                    "k": 2,
                }
            )
    return stream


def run_chaos(
    artifact: ScenarioArtifact,
    preset: str = "kill",
    workers: int = 4,
    requests: int = 400,
    concurrency: int = 8,
    seed: int = 0,
    jsonl_path: Optional[Union[str, Path]] = None,
    fleet_config: Optional[FleetConfig] = None,
    events: Optional[Sequence[ChaosEvent]] = None,
    via_shm: bool = False,
    trace_dir: Optional[Union[str, Path]] = None,
) -> ChaosResult:
    """Drive a fleet through ``preset`` failures and measure the damage.

    Stands up ``workers`` in-process replicas of ``artifact`` behind a
    front, sends ``requests`` seeded requests from ``concurrency``
    client threads, fires the (seeded or explicit) failure ``events``
    at their scheduled points in the stream, and returns a
    :class:`ChaosResult`.  Pass ``jsonl_path`` to append one JSON line
    per request outcome and applied event.

    With ``via_shm=True`` the artifact is published once into a
    temporary shared-memory pool and every worker replica **attaches**
    zero-copy instead of holding its own array copies — the chaos run
    then doubles as a lifecycle test for the shm plane: the summary's
    ``shm.leaked`` flag reports whether the segment survived cleanup
    (it must not, even with workers killed mid-load).

    With ``trace_dir`` set, the front and every worker write JSONL
    trace segments there, every reply carries a ``trace_id``, and the
    result records the trace ids of all degraded replies — so each
    fallback can be replayed as a full cross-process tree
    (``rapflow trace <id>``) showing the failed attempt, the retry, and
    the cache-replay hop.
    """
    schedule = sorted(
        events if events is not None else build_schedule(preset, workers, seed),
        key=lambda event: event.at_fraction,
    )
    fault_config = fault_config_for(preset) if events is None else None
    reference = QueryEngine(artifact, cache_size=0)
    pool = _build_pool(reference, pool_size=8, k=2)
    stream = _build_requests(pool, requests, seed)
    expected = [
        reference.evaluate_totals([[decode_site(site) for site in placement]])
        for placement in pool
    ]

    worker_seed = seed * 11 + 5

    shm_pool = None
    if via_shm:
        import tempfile

        from .shm import ShmArtifactPool

        shm_pool = ShmArtifactPool(tempfile.mkdtemp(prefix="rapflow-chaos-shm-"))
        shm_pool.publish(artifact)

    def engine_factory() -> QueryEngine:
        injector = None
        if fault_config is not None:
            injector = FaultInjector(fault_config, seed=worker_seed)
        if shm_pool is not None:
            # Each replica restores zero-copy from the shared segment:
            # no npz read, no private array copies.
            attached = ScenarioArtifact.attach(shm_pool, artifact.digest)
            return QueryEngine(attached, fault_injector=injector)
        return QueryEngine(artifact, fault_injector=injector)

    config = fleet_config or FleetConfig(
        workers=workers,
        max_inflight=64,
        timeout=10.0,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.3,
        max_missed=2,
        respawn_backoff=0.05,
        respawn_backoff_cap=0.5,
        retry=RetryPolicy(retries=3, backoff=0.02, backoff_cap=0.2),
        seed=seed,
    )
    if trace_dir is not None:
        config = replace(config, trace_dir=trace_dir)
        Path(trace_dir).mkdir(parents=True, exist_ok=True)
    result = ChaosResult(
        preset=preset,
        seed=seed,
        workers=config.workers,
        concurrency=concurrency,
        requests=requests,
    )
    fired = [False] * len(schedule)
    lock = threading.Lock()
    log_handle = open(jsonl_path, "a") if jsonl_path else None

    def log(record: Dict[str, object]) -> None:
        if log_handle is None:
            return
        with lock:
            log_handle.write(json.dumps(record) + "\n")

    try:
        worker_kwargs: Dict[str, object] = {}
        if trace_dir is not None:
            worker_kwargs["trace_dir"] = trace_dir
        fleet = PlacementFleet(
            local_worker_factory(engine_factory, **worker_kwargs),
            digest=artifact.digest,
            config=config,
        )
        with FleetThread(fleet) as handle:
            client = handle.client(timeout=30.0)

            def fire_due_events(index: int) -> None:
                for position, event in enumerate(schedule):
                    with lock:
                        if fired[position]:
                            continue
                        if event.trigger_index(requests) > index:
                            continue
                        fired[position] = True
                    applied: Dict[str, object] = {
                        "event": event.action,
                        "target": event.target,
                        "at_request": index,
                    }
                    try:
                        worker = fleet.worker_handle(event.target)
                        if event.action == "kill":
                            worker.kill()
                        elif event.action == "stall":
                            worker.inject_stall(event.duration)
                            applied["duration"] = event.duration
                        else:
                            raise ServeRequestError(
                                f"unknown chaos action {event.action!r}"
                            )
                    except ServeError as error:
                        applied["skipped"] = str(error)
                    result.events_applied.append(applied)
                    log(applied)

            def drive(index: int) -> None:
                fire_due_events(index)
                request = {
                    name: value
                    for name, value in stream[index].items()
                    if not name.startswith("_")
                }
                kind = str(request["kind"])
                record: Dict[str, object] = {"request": index, "kind": kind}
                with lock:
                    result.sent[kind] = result.sent.get(kind, 0) + 1
                try:
                    payload = client.query(request)
                except ServeClientError as error:
                    record["status"] = error.status or 0
                    record["error"] = str(error)[:200]
                    log(record)
                    return
                record["status"] = 200
                degraded = bool(payload.get("degraded"))
                record["degraded"] = degraded
                record["served_by"] = payload.get("served_by")
                trace_id = payload.get("trace_id")
                if trace_id is not None:
                    record["trace_id"] = trace_id
                mismatch = False
                if kind == "evaluate" and not degraded:
                    totals = payload.get("totals")
                    pool_index = cast(int, stream[index]["_pool_index"])
                    mismatch = totals != expected[pool_index]
                with lock:
                    result.ok[kind] = result.ok.get(kind, 0) + 1
                    if degraded:
                        result.degraded += 1
                        if isinstance(trace_id, str):
                            result.degraded_trace_ids.append(trace_id)
                    if mismatch:
                        result.mismatches += 1
                        record["mismatch"] = True
                log(record)

            with ThreadPoolExecutor(max_workers=concurrency) as executor:
                list(executor.map(drive, range(requests)))
            fire_due_events(requests - 1)  # anything not yet triggered

            health = client.healthz()
            result.respawns = int(health.get("respawns", 0))
            requests_doc = health.get("requests", {})
            if isinstance(requests_doc, dict):
                result.corrupt_detected = int(
                    requests_doc.get("corrupt_detected", 0)
                )
                result.retries = int(requests_doc.get("retries", 0))
            admission = health.get("admission", {})
            if isinstance(admission, dict):
                tiers = admission.get("tiers", {})
                if isinstance(tiers, dict):
                    result.shed = {
                        kind: int(doc.get("shed", 0))
                        for kind, doc in tiers.items()
                        if isinstance(doc, dict)
                    }
            workers_doc = health.get("workers", [])
            if isinstance(workers_doc, list):
                result.worker_states = [
                    str(doc.get("state"))
                    for doc in workers_doc
                    if isinstance(doc, dict)
                ]
            sanitizer_doc = health.get("sanitizer")
            if isinstance(sanitizer_doc, dict):
                result.sanitizer = sanitizer_doc
            slo_doc = health.get("slo")
            if isinstance(slo_doc, dict):
                result.slo = slo_doc
        if shm_pool is not None:
            # The fleet is stopped: detach the replicas' handles and
            # unlink the segment, then probe that nothing leaked —
            # killed workers must not pin the segment past cleanup.
            from .shm import segment_exists, segment_name_for

            segment = segment_name_for(artifact.digest)
            shm_pool.detach_all()
            shm_pool.unlink_all()
            result.shm = {
                "digest": artifact.digest,
                "segment": segment,
                "leaked": segment_exists(segment),
            }
        log({"summary": result.to_dict()})
    finally:
        if shm_pool is not None and result.shm is None:
            # The run died before clean teardown: still unlink.
            shm_pool.detach_all()
            shm_pool.unlink_all()
        if log_handle is not None:
            log_handle.close()
    return result


__all__ = [
    "CHAOS_PRESETS",
    "ChaosEvent",
    "ChaosResult",
    "build_schedule",
    "fault_config_for",
    "run_chaos",
]
