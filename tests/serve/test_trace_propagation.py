"""Cross-process trace propagation, /metrics, and SLO surfacing.

The distributed-observability contract: a traced fleet query must come
back with a ``trace_id`` that resolves — via the merged JSONL segments
— to one tree spanning the front (root + per-attempt spans), the
worker (request span), and the engine (evaluate/handle span).  Failure
paths are first-class: retries, hedges, and degraded cache-replay
fallbacks each leave their hop in the tree.
"""

import os

import pytest

from repro.cli import main
from repro.errors import ServeClientError
from repro.obs import load_traces, make_trace_id
from repro.obs.trace import TraceRecorder
from repro.reliability import FaultConfig, FaultInjector
from repro.serve import (
    ChaosEvent,
    FleetConfig,
    PlacementFleet,
    QueryEngine,
    RetryPolicy,
    ServerThread,
    local_worker_factory,
    run_chaos,
)

SEED = 7


def fast_config(**overrides):
    defaults = dict(
        workers=2,
        heartbeat_interval=0.05,
        heartbeat_timeout=0.3,
        max_missed=2,
        respawn_backoff=0.05,
        respawn_backoff_cap=0.3,
        retry=RetryPolicy(retries=2, backoff=0.01, backoff_cap=0.05),
        seed=SEED,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def make_fleet(artifact, config, engine_factory=None, **worker_kwargs):
    factory = local_worker_factory(
        engine_factory or (lambda: QueryEngine(artifact)), **worker_kwargs
    )
    return PlacementFleet(factory, digest=artifact.digest, config=config)


def spans_named(trace, name):
    return trace.named(name)


def open_file_targets():
    """What this process's open descriptors point at."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # closed since the listing
            pass
    return targets


class TestFleetPropagation:
    def test_traced_query_yields_a_complete_cross_process_tree(
        self, artifact, tmp_path
    ):
        config = fast_config(trace_dir=tmp_path)
        fleet = make_fleet(artifact, config, trace_dir=tmp_path)
        with ServerThread(fleet) as handle:
            client = handle.client()
            payload = client.query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
        assert payload["totals"] == [21.0]
        # Trace ids are seeded-deterministic: fleet seed + request index.
        assert payload["trace_id"] == make_trace_id(SEED, 0)

        traces = load_traces(tmp_path)
        trace = traces[payload["trace_id"]]
        (root,) = trace.roots
        assert root.name == "front.request"
        assert root.role == "front"
        assert root.attrs["status"] == 200

        (attempt,) = spans_named(trace, "front.attempt")
        assert attempt.parent_id == root.span_id
        assert attempt.attrs["status"] == 200
        assert attempt.attrs["attempt"] == 0
        assert attempt.attrs["hedge"] is False
        assert attempt.attrs["shard"] == artifact.digest[:12]

        (hop,) = spans_named(trace, "worker.request")
        assert hop.parent_id == attempt.span_id
        assert hop.role == "worker"
        assert hop.worker == payload["served_by"]
        assert hop.attrs["path"] == "/query"

        # Evaluates take the engine's one path, like every other kind.
        (engine_span,) = spans_named(trace, "engine.handle")
        assert engine_span.parent_id == hop.span_id
        assert engine_span.attrs["status"] == "ok"
        assert engine_span.attrs["kind"] == "evaluate"

    def test_trace_ids_advance_per_request(self, artifact, tmp_path):
        config = fast_config(trace_dir=tmp_path)
        fleet = make_fleet(artifact, config, trace_dir=tmp_path)
        with ServerThread(fleet) as handle:
            client = handle.client()
            ids = [
                client.query(
                    {"kind": "evaluate", "placements": [["V3", "V5"]]}
                )["trace_id"]
                for _ in range(3)
            ]
        assert ids == [make_trace_id(SEED, index) for index in range(3)]

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_shutdown_closes_every_trace_segment(self, artifact, tmp_path):
        config = fast_config(workers=1, trace_dir=tmp_path)
        fleet = make_fleet(artifact, config, trace_dir=tmp_path)
        with ServerThread(fleet) as handle:
            handle.client().evaluate([["V3", "V5"]])
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "front.jsonl", "worker-w0.jsonl",
        ]
        assert [
            target for target in open_file_targets()
            if target.startswith(str(tmp_path))
        ] == []

    def test_untraced_fleet_has_no_trace_plane(self, artifact, tmp_path):
        fleet = make_fleet(artifact, fast_config())
        with ServerThread(fleet) as handle:
            payload = handle.client().query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
        assert "trace_id" not in payload
        assert list(tmp_path.iterdir()) == []

    def test_retry_after_corrupt_reply_traces_both_attempts(
        self, artifact, tmp_path
    ):
        def engine_for(index):
            if index == 0:
                injector = FaultInjector(
                    FaultConfig(request_corrupt_rate=1.0), seed=5
                )
                return QueryEngine(artifact, fault_injector=injector)
            return QueryEngine(artifact)

        def factory(index):
            from repro.serve import LocalWorker

            return LocalWorker(
                f"w{index}", lambda: engine_for(index), trace_dir=tmp_path
            )

        config = fast_config(trace_dir=tmp_path)
        fleet = PlacementFleet(
            factory, digest=artifact.digest, config=config
        )
        with ServerThread(fleet) as handle:
            payload = handle.client().query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
        assert payload["served_by"] == "w1"

        trace = load_traces(tmp_path)[payload["trace_id"]]
        attempts = spans_named(trace, "front.attempt")
        assert len(attempts) == 2
        by_attempt = sorted(attempts, key=lambda s: s.attrs["attempt"])
        # Both attempts answered 200 on the wire; the first reply was
        # corrupt (wrong digest) so the front retried on w1.
        assert by_attempt[0].attrs["worker"] == "w0"
        assert by_attempt[1].attrs["worker"] == "w1"
        # Each attempt hop has its own worker-side span.
        workers_seen = {
            span.worker for span in spans_named(trace, "worker.request")
        }
        assert workers_seen == {"w0", "w1"}

    def test_hedged_attempt_is_flagged_in_the_tree(self, artifact, tmp_path):
        def engine_for(index):
            if index == 0:
                injector = FaultInjector(
                    FaultConfig(
                        request_delay_rate=1.0, request_delay_seconds=0.5
                    ),
                    seed=5,
                )
                return QueryEngine(artifact, fault_injector=injector)
            return QueryEngine(artifact)

        def factory(index):
            from repro.serve import LocalWorker

            return LocalWorker(
                f"w{index}", lambda: engine_for(index), trace_dir=tmp_path
            )

        config = fast_config(
            trace_dir=tmp_path,
            retry=RetryPolicy(retries=1, hedge=True, hedge_delay=0.05),
        )
        fleet = PlacementFleet(
            factory, digest=artifact.digest, config=config
        )
        with ServerThread(fleet) as handle:
            payload = handle.client().query(
                {"kind": "evaluate", "placements": [["V3", "V5"]]}
            )
        assert payload["served_by"] == "w1"

        trace = load_traces(tmp_path)[payload["trace_id"]]
        attempts = spans_named(trace, "front.attempt")
        assert len(attempts) >= 2
        hedge_flags = {span.attrs["hedge"] for span in attempts}
        assert hedge_flags == {False, True}
        # The slow primary lost the race and was cancelled mid-flight;
        # its span still records the outcome.
        statuses = {span.attrs["status"] for span in attempts}
        assert 200 in statuses
        assert "cancelled" in statuses


class TestDegradedChaosTraces:
    def test_every_degraded_reply_has_a_complete_fallback_tree(
        self, artifact, tmp_path
    ):
        # Seeded kill run with supervision disabled: both workers die
        # mid-stream and never respawn, so the front must retry against
        # dead replicas and then fall back to its reply cache.  Every
        # degraded: true reply must resolve to a tree showing the
        # failed attempt, the retry, and the cache-replay hop.
        trace_dir = tmp_path / "traces"
        config = FleetConfig(
            workers=2,
            heartbeat_interval=30.0,  # no probes: slots stay "up"
            timeout=5.0,
            retry=RetryPolicy(retries=2, backoff=0.01, backoff_cap=0.02),
            seed=SEED,
        )
        result = run_chaos(
            artifact,
            preset="kill",
            workers=2,
            requests=120,
            concurrency=4,
            seed=3,
            fleet_config=config,
            events=[
                ChaosEvent(0.3, "kill", 0),
                ChaosEvent(0.3, "kill", 1),
            ],
            trace_dir=trace_dir,
        )
        assert result.degraded > 0
        assert len(result.degraded_trace_ids) == result.degraded
        assert result.slo is not None
        # Post-kill the error rate dwarfs the 1% budget: the short
        # window must report a burn storm.
        burn = result.slo["windows"]["60s"]["burn_rate"]
        assert burn > 1.0

        traces = load_traces(trace_dir)
        for trace_id in result.degraded_trace_ids:
            trace = traces[trace_id]
            assert trace.degraded
            (root,) = trace.roots
            assert root.name == "front.request"
            assert root.attrs.get("degraded") is True
            attempts = spans_named(trace, "front.attempt")
            # The failed attempt plus at least one retry, all failures.
            assert len(attempts) >= 2
            assert all(
                span.attrs["status"] != 200 for span in attempts
            )
            (fallback,) = spans_named(trace, "front.degrade")
            assert fallback.attrs["outcome"] == "cache-replay"
            assert fallback.parent_id == root.span_id


class TestMetricsEndpoints:
    def test_worker_metrics_histogram_counts_queries(self, artifact):
        with ServerThread(QueryEngine(artifact)) as handle:
            client = handle.client()
            for _ in range(5):
                client.evaluate([["V3", "V5"]])
            doc = client.metrics()
        assert doc["schema"] == "rapflow-metrics/1"
        assert doc["role"] == "worker"
        assert doc["latency"]["count"] == 5
        assert sum(doc["latency"]["counts"]) == 5
        assert doc["counters"]["served"] == 5
        assert doc["counters"]["statuses"] == {"200": 5}
        assert doc["latency"]["p95_ms"] > 0

    def test_healthz_probes_stay_out_of_the_histogram(self, artifact):
        with ServerThread(QueryEngine(artifact)) as handle:
            client = handle.client()
            client.healthz()
            client.healthz()
            doc = client.metrics()
        assert doc["latency"]["count"] == 0

    def test_front_metrics_aggregate_the_fleet(self, artifact):
        fleet = make_fleet(artifact, fast_config())
        with ServerThread(fleet) as handle:
            client = handle.client()
            for _ in range(4):
                client.evaluate([["V3", "V5"]])
            doc = client.metrics()
        assert doc["schema"] == "rapflow-metrics/1"
        assert doc["role"] == "front"
        assert doc["latency"]["count"] == 4
        assert doc["workers_reporting"] == 2
        assert set(doc["workers"]) == {"w0", "w1"}
        # Worker-side histograms merge bucket-wise; all four queries
        # landed on some worker.
        assert doc["workers_latency"]["count"] >= 4
        counters = doc["counters"]
        assert counters["served"] == 4
        for key in ("retries", "hedges", "degraded", "respawns",
                    "shm_attached", "shed"):
            assert key in counters
        assert "slo" in doc

    def test_fleet_metrics_tolerate_a_dead_worker(self, artifact):
        fleet = make_fleet(artifact, fast_config(heartbeat_interval=30.0))
        with ServerThread(fleet) as handle:
            client = handle.client()
            client.evaluate([["V3", "V5"]])
            fleet.worker_handle(0).kill()
            doc = client.metrics()
        assert doc["workers_reporting"] == 1
        assert doc["workers"]["w0"] is None
        assert doc["workers"]["w1"] is not None


class TestHealthSurfacing:
    def test_latency_log_degradation_is_reported(self, artifact, tmp_path):
        # Pointing the latency log at a directory makes every append
        # fail: the server must keep serving and say so in /healthz.
        with ServerThread(
            QueryEngine(artifact), latency_log=tmp_path
        ) as handle:
            client = handle.client()
            client.evaluate([["V3", "V5"]])
            health = client.healthz()
        assert health["latency_log"] == "degraded"

    def test_latency_log_states_ok_and_disabled(self, artifact, tmp_path):
        with ServerThread(QueryEngine(artifact)) as handle:
            assert handle.client().healthz()["latency_log"] == "disabled"
        log = tmp_path / "latency.jsonl"
        with ServerThread(
            QueryEngine(artifact), latency_log=log
        ) as handle:
            client = handle.client()
            client.evaluate([["V3", "V5"]])
            assert client.healthz()["latency_log"] == "ok"

    def test_fleet_healthz_carries_slo_and_trace_blocks(
        self, artifact, tmp_path
    ):
        config = fast_config(trace_dir=tmp_path)
        fleet = make_fleet(artifact, config, trace_dir=tmp_path)
        with ServerThread(fleet) as handle:
            client = handle.client()
            client.evaluate([["V3", "V5"]])
            health = client.healthz()
        slo = health["slo"]
        assert slo["availability_target"] == pytest.approx(0.99)
        assert set(slo["windows"]) == {"60s", "300s"}
        assert slo["healthy"] is True
        assert health["trace"] == {"enabled": True, "degraded": False}

    def test_worker_healthz_reports_trace_state(self, artifact, tmp_path):
        with ServerThread(
            QueryEngine(artifact), trace_dir=tmp_path, worker_label="w9"
        ) as handle:
            health = handle.client().healthz()
        assert health["trace"] == {"enabled": True, "degraded": False}


class TestTraceCLI:
    def _seed_segments(self, trace_dir):
        recorder = TraceRecorder(trace_dir / "front.jsonl", role="front")
        trace_id = make_trace_id(1, 0)
        recorder.span(trace_id, "front-0", None, "front.request",
                      start=0.0, end=0.25,
                      attrs={"status": 200, "degraded": True})
        slow_id = make_trace_id(1, 1)
        recorder.span(slow_id, "front-0", None, "front.request",
                      start=0.0, end=0.75, attrs={"status": 200})
        recorder.close()
        return trace_id, slow_id

    def test_trace_renders_one_tree(self, tmp_path, capsys):
        trace_id, _ = self._seed_segments(tmp_path)
        assert main(
            ["trace", trace_id, "--trace-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"trace {trace_id}" in out
        assert "front.request@front" in out

    def test_trace_unknown_id_fails_cleanly(self, tmp_path, capsys):
        self._seed_segments(tmp_path)
        code = main(
            ["trace", "f" * 16, "--trace-dir", str(tmp_path)]
        )
        assert code != 0
        assert "not found" in capsys.readouterr().err

    def test_traces_slowest_orders_by_duration(self, tmp_path, capsys):
        trace_id, slow_id = self._seed_segments(tmp_path)
        assert main(
            ["traces", "--trace-dir", str(tmp_path), "--slowest", "1"]
        ) == 0
        captured = capsys.readouterr()
        assert slow_id in captured.out
        assert trace_id not in captured.out

    def test_traces_degraded_filter(self, tmp_path, capsys):
        trace_id, slow_id = self._seed_segments(tmp_path)
        assert main(
            ["traces", "--trace-dir", str(tmp_path), "--degraded"]
        ) == 0
        captured = capsys.readouterr()
        assert trace_id in captured.out
        assert slow_id not in captured.out
