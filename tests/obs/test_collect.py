"""The trace collector: JSONL segments in, cross-process trees out."""

import json

import pytest

from repro.errors import ObsError
from repro.obs import build_traces, find_trace, load_traces, render_trace
from repro.obs.collect import degraded, load_segments, slowest


def _span(trace_id, span_id, parent_id, name, *, t_start=0.0, duration=0.01,
          role="front", worker=None, attrs=None):
    event = {
        "event": "span",
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "role": role,
        "worker": worker,
        "t_start": t_start,
        "duration": duration,
    }
    if attrs is not None:
        event["attrs"] = attrs
    return event


def _write_segment(path, events):
    path.write_text("".join(json.dumps(e) + "\n" for e in events))


def _fleet_segments(tmp_path):
    """A two-process trace: front root + attempt, worker request."""
    trace = "ab" * 8
    _write_segment(tmp_path / "front.jsonl", [
        _span(trace, "front-0", None, "front.request", duration=0.05,
              attrs={"status": 200}),
        _span(trace, "front-1", "front-0", "front.attempt", t_start=0.001,
              duration=0.04,
              attrs={"worker": "w0", "attempt": 0, "hedge": False,
                     "status": 200}),
    ])
    _write_segment(tmp_path / "worker-w0.jsonl", [
        _span(trace, "w0-0", "front-1", "worker.request", duration=0.03,
              role="worker", worker="w0",
              attrs={"path": "/query", "status": 200}),
    ])
    return trace


class TestBuildTraces:
    def test_segments_merge_into_one_tree(self, tmp_path):
        trace_id = _fleet_segments(tmp_path)
        traces = load_traces(tmp_path)
        assert set(traces) == {trace_id}
        trace = traces[trace_id]
        assert len(trace.spans) == 3
        (root,) = trace.roots
        assert root.name == "front.request"
        (attempt,) = root.children
        assert attempt.name == "front.attempt"
        (hop,) = attempt.children
        assert hop.name == "worker.request"
        assert hop.worker == "w0"

    def test_orphan_spans_become_extra_roots(self):
        # A worker span whose front segment was lost (killed worker,
        # torn file) must still surface, not vanish.
        events = [_span("cd" * 8, "w1-0", "front-77", "worker.request",
                        role="worker", worker="w1")]
        traces = build_traces(events)
        trace = traces["cd" * 8]
        assert [span.span_id for span in trace.roots] == ["w1-0"]

    def test_children_sort_by_start_time(self):
        trace = "ef" * 8
        events = [
            _span(trace, "front-0", None, "front.request", duration=0.2),
            _span(trace, "front-2", "front-0", "front.attempt",
                  t_start=0.10),
            _span(trace, "front-1", "front-0", "front.attempt",
                  t_start=0.05),
        ]
        built = build_traces(events)[trace]
        (root,) = built.roots
        assert [child.span_id for child in root.children] == [
            "front-1", "front-2",
        ]

    def test_duration_and_degraded_flags(self):
        trace = "0a" * 8
        events = [
            _span(trace, "front-0", None, "front.request", duration=0.5,
                  attrs={"status": 200, "degraded": True}),
        ]
        built = build_traces(events)[trace]
        assert built.duration == pytest.approx(0.5)
        assert built.degraded


class TestLoadSegments:
    def test_torn_tail_lines_are_skipped(self, tmp_path):
        good = _span("11" * 8, "front-0", None, "front.request")
        (tmp_path / "front.jsonl").write_text(
            json.dumps(good) + "\n" + '{"event": "span", "trunc'
        )
        events = load_segments(tmp_path)
        assert len(events) == 1

    def test_non_span_events_are_ignored(self, tmp_path):
        _write_segment(tmp_path / "front.jsonl", [
            {"event": "counter", "name": "noise"},
            _span("22" * 8, "front-0", None, "front.request"),
        ])
        assert len(load_segments(tmp_path)) == 1

    def test_an_event_whose_time_is_not_a_number_is_skipped(self, tmp_path):
        trace = "33" * 8
        bad_start = _span(trace, "front-2", "front-0", "front.attempt",
                          t_start="oops")
        bad_duration = _span(trace, "front-3", "front-0", "front.attempt",
                             duration=None)
        _write_segment(tmp_path / "front.jsonl", [
            _span(trace, "front-0", None, "front.request", duration=0.2),
            bad_start,
            _span(trace, "front-1", "front-0", "front.attempt",
                  t_start=0.01),
            bad_duration,
        ])
        built = load_traces(tmp_path)[trace]
        assert sorted(built.spans) == ["front-0", "front-1"]
        (root,) = built.roots
        assert [child.span_id for child in root.children] == ["front-1"]

    def test_missing_directory_is_an_obs_error(self, tmp_path):
        with pytest.raises(ObsError):
            load_segments(tmp_path / "never-created")


class TestQueries:
    def test_find_trace_unknown_id_reports_the_population(self, tmp_path):
        _fleet_segments(tmp_path)
        with pytest.raises(ObsError, match="1 trace"):
            find_trace(tmp_path, "f" * 16)

    def test_slowest_orders_by_duration(self):
        events = []
        for index, duration in enumerate((0.01, 0.30, 0.05)):
            trace = f"{index:016x}"
            events.append(_span(trace, "front-0", None, "front.request",
                                duration=duration))
        traces = build_traces(events)
        top_two = slowest(traces, 2)
        assert [t.duration for t in top_two] == [
            pytest.approx(0.30), pytest.approx(0.05),
        ]
        with pytest.raises(ObsError):
            slowest(traces, 0)

    def test_degraded_filter(self):
        events = [
            _span("1" * 16, "front-0", None, "front.request",
                  attrs={"status": 200, "degraded": True}),
            _span("2" * 16, "front-0", None, "front.request",
                  attrs={"status": 200}),
        ]
        traces = build_traces(events)
        assert [t.trace_id for t in degraded(traces)] == ["1" * 16]


class TestRender:
    def test_render_shows_the_cross_process_tree(self, tmp_path):
        trace_id = _fleet_segments(tmp_path)
        text = render_trace(load_traces(tmp_path)[trace_id])
        assert f"trace {trace_id}" in text
        assert "front.request@front" in text
        assert "front.attempt@front" in text
        assert "worker.request@w0" in text
        assert "status=200" in text

    def test_render_flags_the_breaching_hop(self):
        trace = "9" * 16
        events = [
            _span(trace, "front-0", None, "front.request", duration=0.2),
            _span(trace, "front-1", "front-0", "front.attempt",
                  duration=0.19, attrs={"status": "timeout", "attempt": 0}),
        ]
        text = render_trace(build_traces(events)[trace])
        assert "deadline breached" in text

    def test_render_marks_degraded_traces(self):
        trace = "8" * 16
        events = [
            _span(trace, "front-0", None, "front.request",
                  attrs={"status": 200, "degraded": True}),
        ]
        text = render_trace(build_traces(events)[trace])
        assert "[degraded]" in text
