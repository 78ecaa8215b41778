"""repro.serve — embeddable placement-query service.

The serving layer of the reproduction: compile a
:class:`~repro.core.scenario.Scenario` once into a content-addressed
:class:`~repro.serve.artifacts.ScenarioArtifact` (CSR coverage arrays,
per-incidence utility values, CELF seed heaps — persisted to disk so
restarts skip recompilation), then answer placement queries against it:

* :class:`~repro.serve.engine.QueryEngine` — typed ``place`` /
  ``evaluate`` / ``what_if`` / ``top_gains`` requests, answered by the
  exact library calls a direct user would make (bit-identical results),
  with a bounded LRU response cache that answers
  repeated requests of every kind;
* :class:`~repro.serve.server.PlacementServer` /
  :class:`~repro.serve.client.ServeClient` — stdlib-only JSON-over-HTTP
  front end with admission control (429 on overload), per-request
  deadlines (504), ``/healthz``, and graceful draining shutdown;
* :class:`~repro.serve.fleet.PlacementFleet` — a supervised fleet of N
  worker replicas behind one routing front: heartbeat probes, bounded
  respawn with a circuit breaker, retry/backoff/hedging for idempotent
  queries, tiered load shedding, and degraded cache-replay fallback
  (the front's one cache, consulted only when no worker answers);
* :func:`~repro.serve.chaos.run_chaos` — seeded chaos harness that
  kills/stalls/slows/corrupts workers under concurrent load and checks
  availability plus bit-identity of every non-degraded answer;
* :class:`~repro.serve.shm.ShmArtifactPool` — shared-memory artifact
  plane: one published segment per digest, zero-copy
  :meth:`~repro.serve.artifacts.ScenarioArtifact.attach` restores in
  every worker, refcounted attach/detach, and guaranteed unlink on
  drain or crash (manifest-driven ``sweep``).

The fleet and workers share an observability plane (:mod:`repro.obs`):
cross-process trace propagation over ``X-Rapflow-Trace`` headers into
per-process JSONL segments (opt-in via ``FleetConfig.trace_dir`` /
``PlacementServer(trace_dir=...)``), fixed-bucket latency histograms on
``GET /metrics``, and SLO error-budget burn rates in ``/healthz``.

Surfacing lives in the CLI (``rapflow serve [--workers N]`` /
``rapflow chaos`` / ``rapflow query`` / ``rapflow evaluate``); the
benchmark of record is ``perfbench/run.py``::

    from repro.serve import ArtifactStore, QueryEngine, ServerThread

    artifact = ArtifactStore("~/.cache/rapflow").get_or_compile(scenario)
    engine = QueryEngine(artifact)
    with ServerThread(engine) as handle:
        totals = handle.client().evaluate([["a", "b"], ["c"]])
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .artifacts import (
        ArtifactStore,
        ScenarioArtifact,
        scenario_digest,
        scenario_from_spec,
        scenario_to_spec,
        spec_digest,
    )
    from .chaos import (
        CHAOS_PRESETS,
        ChaosEvent,
        ChaosResult,
        build_schedule,
        run_chaos,
    )
    from .client import ServeClient
    from .engine import REQUEST_KINDS, QueryEngine
    from .fleet import (
        FleetConfig,
        LocalWorker,
        PlacementFleet,
        ProcessWorker,
        RetryPolicy,
        SHED_TIERS,
        local_worker_factory,
        process_worker_factory,
        run_fleet,
    )
    from .server import PlacementServer, run_server
    from .shm import (
        ShmArtifactPool,
        ShmAttachment,
        ShmManifest,
        memory_probe,
        segment_exists,
        segment_name_for,
    )
    from .testing import FleetThread, ServerThread

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".artifacts": (
        "ArtifactStore", "ScenarioArtifact", "scenario_digest", "scenario_from_spec",
        "scenario_to_spec", "spec_digest",
    ),
    ".chaos": (
        "CHAOS_PRESETS", "ChaosEvent", "ChaosResult", "build_schedule", "run_chaos",
    ),
    ".client": ("ServeClient",),
    ".engine": ("REQUEST_KINDS", "QueryEngine"),
    ".fleet": (
        "FleetConfig", "LocalWorker", "PlacementFleet", "ProcessWorker", "RetryPolicy",
        "SHED_TIERS", "local_worker_factory", "process_worker_factory", "run_fleet",
    ),
    ".server": ("PlacementServer", "run_server"),
    ".shm": (
        "ShmArtifactPool", "ShmAttachment", "ShmManifest", "memory_probe",
        "segment_exists", "segment_name_for",
    ),
    ".testing": ("FleetThread", "ServerThread"),
})

__all__ = [
    "ArtifactStore",
    "CHAOS_PRESETS",
    "ChaosEvent",
    "ChaosResult",
    "FleetConfig",
    "FleetThread",
    "LocalWorker",
    "PlacementFleet",
    "PlacementServer",
    "ProcessWorker",
    "QueryEngine",
    "REQUEST_KINDS",
    "RetryPolicy",
    "SHED_TIERS",
    "ScenarioArtifact",
    "ServeClient",
    "ServerThread",
    "ShmArtifactPool",
    "ShmAttachment",
    "ShmManifest",
    "build_schedule",
    "local_worker_factory",
    "memory_probe",
    "process_worker_factory",
    "run_chaos",
    "run_fleet",
    "run_server",
    "scenario_digest",
    "scenario_from_spec",
    "scenario_to_spec",
    "segment_exists",
    "segment_name_for",
    "spec_digest",
]
