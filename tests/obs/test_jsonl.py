"""The run context's JSONL file: one completed-span event per span.

Every event is the fleet's trace-segment line (``event: span`` with
trace id, span id, parent id, name, role, worker, ``t_start`` and
``duration``); each span appears exactly once, written when it closes,
so the root comes last and carries the counter totals and the gauges;
with a deterministic clock the whole file is byte-reproducible; and
the trace loader reads it back into the tree the context recorded.
"""

import json

import pytest

from repro.errors import ObsError
from repro.obs import ObsContext, TickClock, load_traces


def record(path):
    with ObsContext(clock=TickClock(), jsonl_path=path, label="run") as ctx:
        with ctx.span("outer", k=2):
            ctx.count("work", 3)
            with ctx.span("inner"):
                ctx.count("work", 1)
        with ctx.span("sibling"):
            pass
        ctx.gauge("scale", "small")
    return ctx


def load_events(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def shape(span):
    return (
        span.name,
        dict(span.attrs),
        dict(span.counters),
        [shape(child) for child in span.children],
    )


class TestSchema:
    def test_every_event_has_required_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record(path)
        events = load_events(path)
        assert len(events) == 4
        trace_ids = {event["trace_id"] for event in events}
        assert len(trace_ids) == 1
        assert isinstance(trace_ids.pop(), str)
        for event in events:
            assert event["event"] == "span"
            assert isinstance(event["span_id"], str)
            assert isinstance(event["name"], str)
            assert isinstance(event["t_start"], (int, float))
            assert isinstance(event["duration"], (int, float))
            assert "parent_id" in event
            assert event["role"] is None and event["worker"] is None

    def test_lines_are_written_with_sorted_keys(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record(path)
        for line in path.read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_each_span_appears_once_as_it_closes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record(path)
        events = load_events(path)
        ids = [e["span_id"] for e in events]
        assert len(ids) == len(set(ids))
        assert [e["name"] for e in events] == [
            "inner", "outer", "sibling", "run",
        ]

    def test_end_times_never_go_backwards(self, tmp_path):
        # Events are written as spans close, so the end times of
        # successive lines never decrease.
        path = tmp_path / "events.jsonl"
        record(path)
        ends = [e["t_start"] + e["duration"] for e in load_events(path)]
        assert ends == sorted(ends)

    def test_children_lie_within_their_parent(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record(path)
        events = {e["span_id"]: e for e in load_events(path)}
        for event in events.values():
            assert event["duration"] >= 0
            parent = events.get(event["parent_id"])
            if parent is None:
                continue
            assert event["t_start"] >= parent["t_start"]
            assert (
                event["t_start"] + event["duration"]
                <= parent["t_start"] + parent["duration"]
            )

    def test_parent_ids_reference_recorded_spans(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record(path)
        events = load_events(path)
        ids = {e["span_id"] for e in events}
        for event in events:
            if event["parent_id"] is not None:
                assert event["parent_id"] in ids
        roots = [e for e in events if e["parent_id"] is None]
        assert [e["name"] for e in roots] == ["run"]
        assert roots[0] is events[-1]

    def test_span_end_carries_counters_and_root_gauges(self, tmp_path):
        # The event a span writes at its end holds its own counters; the
        # root's holds the totals and the gauges.
        path = tmp_path / "events.jsonl"
        record(path)
        by_name = {e["name"]: e for e in load_events(path)}
        assert by_name["outer"]["counters"] == {"work": 3}
        assert by_name["inner"]["counters"] == {"work": 1}
        assert "counters" not in by_name["sibling"]
        root = by_name["run"]
        assert root["counters"] == {"work": 4}
        assert root["gauges"] == {"scale": "small"}
        assert all("gauges" not in e for n, e in by_name.items() if n != "run")

    def test_deterministic_clock_reproduces_the_stream(self, tmp_path):
        first = tmp_path / "a" / "events.jsonl"
        second = tmp_path / "b" / "events.jsonl"
        first.parent.mkdir()
        second.parent.mkdir()
        record(first)
        record(second)
        assert first.read_bytes() == second.read_bytes()


    def test_a_span_closed_after_exit_writes_nothing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        ctx = ObsContext(clock=TickClock(), jsonl_path=path)
        ctx.__enter__()
        leaked = ctx.span("leaked")
        leaked.__enter__()
        with pytest.raises(ObsError):
            ctx.__exit__(None, None, None)
        leaked.__exit__(None, None, None)
        assert path.read_text() == ""


class TestLoadsAsATrace:
    def test_the_loader_rebuilds_the_recorded_tree(self, tmp_path):
        ctx = record(tmp_path / "events.jsonl")
        traces = load_traces(tmp_path)
        assert list(traces) == [ctx.trace_id]
        (root,) = traces[ctx.trace_id].roots
        assert shape(root) == shape(ctx.root)

    def test_two_files_in_one_directory_are_two_traces(self, tmp_path):
        record(tmp_path / "a.jsonl")
        record(tmp_path / "b.jsonl")
        traces = load_traces(tmp_path)
        assert len(traces) == 2
        assert all(len(trace.spans) == 4 for trace in traces.values())

    def test_old_start_and_end_lines_are_skipped(self, tmp_path):
        (tmp_path / "old.jsonl").write_text(
            json.dumps({"event": "span_start", "span_id": 0, "name": "run",
                        "parent_id": None, "t_rel": 0.0}) + "\n"
            + json.dumps({"event": "span_end", "span_id": 0, "name": "run",
                          "parent_id": None, "t_rel": 1.0,
                          "duration": 1.0}) + "\n"
        )
        assert load_traces(tmp_path) == {}
