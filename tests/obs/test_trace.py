"""The distributed-trace primitives: ids, headers, recorder, request spans.

Everything here is deterministic — trace ids derive from (seed, index),
span ids from a per-recorder counter, and timing runs on a
:class:`~repro.obs.clock.TickClock` — so assertions are exact.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    TRACE_HEADER,
    ObsContext,
    TickClock,
    TraceRecorder,
    format_trace_header,
    make_trace_id,
    parse_trace_header,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import request_span


class TestTraceIds:
    def test_trace_id_is_seed_and_index_deterministic(self):
        assert make_trace_id(3, 0) == make_trace_id(3, 0)
        assert make_trace_id(3, 0) != make_trace_id(3, 1)
        assert make_trace_id(3, 0) != make_trace_id(4, 0)

    def test_trace_id_is_sixteen_hex_chars(self):
        trace_id = make_trace_id(42, 7)
        assert len(trace_id) == 16
        int(trace_id, 16)  # raises if not hex

    def test_header_round_trips(self):
        header = format_trace_header("00ab" * 4, "front-3")
        assert parse_trace_header(header) == ("00ab" * 4, "front-3")

    def test_malformed_header_parses_to_none(self):
        assert parse_trace_header("") is None
        assert parse_trace_header("no-separator") is None
        assert parse_trace_header(":missing-trace") is None
        assert parse_trace_header("missing-span:") is None

    def test_span_id_survives_colons_in_origin(self):
        # The header splits on the FIRST colon only, so span ids with
        # unusual origins still round-trip.
        header = format_trace_header("f" * 16, "w0:odd")
        assert parse_trace_header(header) == ("f" * 16, "w0:odd")

    def test_header_name_is_the_wire_constant(self):
        assert TRACE_HEADER == "x-rapflow-trace"


class TestTraceRecorder:
    def test_writes_one_json_line_per_span(self, tmp_path):
        clock = TickClock(start=100.0, step=0.0)
        recorder = TraceRecorder(
            tmp_path / "front.jsonl", role="front", clock=clock
        )
        recorder.span(
            "t" * 16, "front-0", None, "front.request",
            start=100.5, end=100.75, attrs={"status": 200},
        )
        recorder.close()
        lines = (tmp_path / "front.jsonl").read_text().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["event"] == "span"
        assert event["trace_id"] == "t" * 16
        assert event["span_id"] == "front-0"
        assert event["parent_id"] is None
        assert event["role"] == "front"
        assert event["t_start"] == pytest.approx(0.5)
        assert event["duration"] == pytest.approx(0.25)
        assert event["attrs"] == {"status": 200}

    def test_span_ids_are_origin_scoped_and_monotone(self, tmp_path):
        worker = TraceRecorder(
            tmp_path / "w.jsonl", role="worker", worker_id="w3"
        )
        front = TraceRecorder(tmp_path / "f.jsonl", role="front")
        assert worker.next_span_id() == "w3-0"
        assert worker.next_span_id() == "w3-1"
        assert front.next_span_id() == "front-0"

    def test_appends_across_reopen_like_a_respawned_worker(self, tmp_path):
        path = tmp_path / "worker-w0.jsonl"
        for generation in range(2):
            recorder = TraceRecorder(path, role="worker", worker_id="w0")
            recorder.span(
                "a" * 16, f"w0-{generation}", None, "worker.request",
                start=0.0, end=0.0,
            )
            recorder.close()
        assert len(path.read_text().splitlines()) == 2

    def test_degrades_permanently_on_write_failure(self, tmp_path):
        target = tmp_path / "nope"
        target.mkdir()  # opening a directory for append raises OSError
        recorder = TraceRecorder(target, role="front")
        assert not recorder.degraded
        recorder.span("b" * 16, "front-0", None, "x", start=0.0, end=0.0)
        assert recorder.degraded
        # Further spans are silently dropped, never raised.
        recorder.span("b" * 16, "front-1", None, "x", start=0.0, end=0.0)
        recorder.close()


def read_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTraceContext:
    def test_record_is_a_noop_without_an_active_context(self, tmp_path):
        # No current trace: the trace entry point and the hooks are the
        # shared no-op, and nothing reaches a segment.
        recorder = TraceRecorder(tmp_path / "seg.jsonl", role="front")
        assert obs_trace.current() is None
        with request_span(None, ("c" * 16, None), "front.request") as span:
            assert span is None
            assert obs_trace.current() is None
        with request_span(recorder, None, "worker.request") as span:
            assert span is None
        with obs.span("engine.handle") as span:
            assert span is None
        recorder.close()
        assert not (tmp_path / "seg.jsonl").exists()

    def test_record_writes_through_the_active_context(self, tmp_path):
        # A span opened under the current trace goes to that trace's
        # recorder, parented to the current span; the request span is
        # current for its body and written when it closes.
        clock = TickClock(step=0.25)
        recorder = TraceRecorder(
            tmp_path / "seg.jsonl", role="front", clock=clock
        )
        with request_span(recorder, ("c" * 16, None), "front.request") as root:
            assert obs_trace.current() is root
            with obs.span("front.attempt", attempt=0) as child:
                assert obs_trace.current() is child
                assert child.parent_id == root.span_id
            # The child is written as it closes; the root is not yet.
            assert len(read_events(tmp_path / "seg.jsonl")) == 1
            root.attrs["status"] = 200
        recorder.close()
        assert obs_trace.current() is None
        child_event, root_event = read_events(tmp_path / "seg.jsonl")
        assert root_event["trace_id"] == child_event["trace_id"] == "c" * 16
        assert root_event["parent_id"] is None
        assert root_event["span_id"] == "front-0"
        assert root_event["attrs"] == {"status": 200}
        assert child_event["parent_id"] == "front-0"
        assert child_event["attrs"] == {"attempt": 0}
        assert child_event["duration"] == pytest.approx(0.25)
        assert root_event["duration"] == pytest.approx(0.75)

    def test_explicit_parent_overrides_the_context_span(self, tmp_path):
        # A worker's request span parents to the span named in the
        # header, not to whatever trace is current in the task.
        recorder = TraceRecorder(tmp_path / "seg.jsonl", role="worker",
                                 worker_id="w1")
        parent = parse_trace_header(format_trace_header("d" * 16, "front-2"))
        with request_span(recorder, ("d" * 16, "front-9"), "outer"):
            with request_span(recorder, parent, "worker.request"):
                pass
        recorder.close()
        event, _ = read_events(tmp_path / "seg.jsonl")
        assert event["name"] == "worker.request"
        assert event["parent_id"] == "front-2"
        assert event["span_id"] == "w1-1"
        assert (event["role"], event["worker"]) == ("worker", "w1")

    def test_a_span_left_by_an_error_is_still_written(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "seg.jsonl", role="front")
        with pytest.raises(ValueError):
            with request_span(recorder, ("e" * 16, None), "front.request"):
                raise ValueError("boom")
        recorder.close()
        assert obs_trace.current() is None
        assert [e["name"] for e in read_events(tmp_path / "seg.jsonl")] == [
            "front.request"
        ]

    def test_counters_land_on_the_current_trace_span(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "seg.jsonl", role="worker",
                                 worker_id="w0")
        with ObsContext() as ctx:
            with request_span(recorder, ("f" * 16, "front-0"), "worker.request"):
                obs.count("serve.http.200")
                with obs.span("engine.handle"):
                    obs.count_many({"gain.evaluations": 7, "celf.heap_pops": 2})
                    obs.count("gain.evaluations", 3)
        recorder.close()
        handle, request = read_events(tmp_path / "seg.jsonl")
        assert handle["counters"] == {
            "gain.evaluations": 10, "celf.heap_pops": 2,
        }
        assert request["counters"] == {"serve.http.200": 1}
        # The run context still counts everything, but the trace took
        # the span: the run tree stays as it was.
        assert ctx.counters == {
            "serve.http.200": 1, "gain.evaluations": 10, "celf.heap_pops": 2,
        }
        assert ctx.root.children == []

    def test_context_is_task_local_not_global(self, tmp_path):
        import asyncio

        recorder = TraceRecorder(tmp_path / "seg.jsonl", role="front")

        async def scenario():
            with request_span(recorder, ("e" * 16, None), "front.request"):
                # Tasks created under a current trace inherit it ...
                inherited = await asyncio.create_task(_current_id())
            # ... and closing the span restores the outer state.
            cleared = await asyncio.create_task(_current_id())
            return inherited, cleared

        async def _current_id():
            current = obs_trace.current()
            return None if current is None else current.trace_id

        inherited, cleared = asyncio.run(scenario())
        recorder.close()
        assert inherited == "e" * 16
        assert cleared is None
