"""Unit tests for the observability recorder (repro.obs)."""

import pytest

from repro import obs
from repro.errors import ObsError, ReproError
from repro.obs import (
    Clock,
    ObsContext,
    SystemClock,
    TickClock,
    render_counter_table,
    render_report,
    render_span_tree,
)


class TestClocks:
    def test_tick_clock_is_deterministic(self):
        a = TickClock()
        b = TickClock()
        assert [a.now() for _ in range(4)] == [b.now() for _ in range(4)]

    def test_tick_clock_start_and_step(self):
        clock = TickClock(start=10.0, step=0.5)
        assert clock.now() == 10.0
        assert clock.now() == 10.5

    def test_system_clock_is_monotone(self):
        clock = SystemClock()
        assert clock.now() <= clock.now()

    def test_both_satisfy_protocol(self):
        assert isinstance(SystemClock(), Clock)
        assert isinstance(TickClock(), Clock)


class TestActivation:
    def test_inactive_by_default(self):
        assert obs.active() is None

    def test_active_inside_and_restored_after(self):
        with ObsContext() as ctx:
            assert obs.active() is ctx
        assert obs.active() is None

    def test_nested_contexts_restore_previous(self):
        with ObsContext() as outer:
            with ObsContext() as inner:
                assert obs.active() is inner
            assert obs.active() is outer
        assert obs.active() is None

    def test_double_enter_raises(self):
        ctx = ObsContext()
        with ctx:
            pass
        with pytest.raises(ObsError):
            ctx.__enter__()

    def test_open_span_at_exit_raises(self):
        ctx = ObsContext()
        ctx.__enter__()
        pending = ctx.span("leaked")
        pending.__enter__()
        with pytest.raises(ObsError):
            ctx.__exit__(None, None, None)
        assert obs.active() is None

    def test_obs_error_is_a_repro_error(self):
        assert issubclass(ObsError, ReproError)


class TestSpans:
    def test_nesting_builds_the_tree(self):
        with ObsContext(clock=TickClock()) as ctx:
            with ctx.span("outer", k=3) as outer:
                with ctx.span("inner") as inner:
                    pass
        assert [child.name for child in ctx.root.children] == ["outer"]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ctx.root.span_id
        assert outer.attrs == {"k": 3}

    def test_span_ids_are_unique(self):
        with ObsContext() as ctx:
            with ctx.span("a") as a:
                pass
            with ctx.span("b") as b:
                pass
        ids = {ctx.root.span_id, a.span_id, b.span_id}
        assert len(ids) == 3

    def test_durations_from_injected_clock(self):
        with ObsContext(clock=TickClock(step=1.0)) as ctx:
            with ctx.span("timed") as span:
                pass
        assert span.duration == 1.0
        assert ctx.root.duration is not None

    def test_span_closed_on_error(self):
        with ObsContext() as ctx:
            with pytest.raises(ValueError):
                with ctx.span("boom"):
                    raise ValueError("inner failure")
            assert ctx.current_span is ctx.root
        assert ctx.root.children[0].duration is not None


class TestCounters:
    def test_count_lands_on_context_and_innermost_span(self):
        with ObsContext() as ctx:
            ctx.count("hits")
            with ctx.span("inner") as inner:
                ctx.count("hits", 2)
        assert ctx.counters == {"hits": 3}
        assert inner.counters == {"hits": 2}
        # At exit the root's counters become the global totals (that is
        # what the root span's event carries).
        assert ctx.root.counters == {"hits": 3}

    def test_count_many(self):
        with ObsContext() as ctx:
            ctx.count_many({"a": 1, "b": 2.5})
        assert ctx.counters == {"a": 1, "b": 2.5}

    def test_gauge_last_value_wins(self):
        with ObsContext() as ctx:
            ctx.gauge("backend", "python")
            ctx.gauge("backend", "numpy")
        assert ctx.gauges == {"backend": "numpy"}

    def test_snapshot_deltas(self):
        with ObsContext() as ctx:
            ctx.count("work", 5)
            before = ctx.snapshot()
            ctx.count("work", 2)
            ctx.count("new", 1)
            assert ctx.counters_since(before) == {"work": 2, "new": 1}

    def test_snapshot_is_a_copy(self):
        with ObsContext() as ctx:
            snap = ctx.snapshot()
            ctx.count("later")
        assert snap == {}


class TestModuleHooks:
    def test_hooks_are_noops_without_context(self):
        obs.count("ignored")
        obs.count_many({"ignored": 2})
        obs.gauge("ignored", "x")
        with obs.span("ignored") as span:
            assert span is None
        assert obs.active() is None

    def test_hooks_route_into_active_context(self):
        with ObsContext() as ctx:
            obs.count("routed")
            obs.count_many({"batch": 3})
            obs.gauge("mode", "test")
            with obs.span("hooked") as span:
                assert span is not None
        assert ctx.counters == {"routed": 1, "batch": 3}
        assert ctx.gauges == {"mode": "test"}
        assert ctx.root.children[0].name == "hooked"


class TestRendering:
    def _recorded(self):
        with ObsContext(clock=TickClock(), label="run") as ctx:
            with ctx.span("select", algorithm="lazy-greedy"):
                ctx.count("gain.evaluations", 42)
            ctx.gauge("scale", "small")
        return ctx

    def test_span_tree_shows_spans_attrs_and_counters(self):
        tree = render_span_tree(self._recorded())
        assert "select [algorithm=lazy-greedy]" in tree
        assert "gain.evaluations = 42" in tree

    def test_counter_table_is_sorted_and_aligned(self):
        table = render_counter_table({"b": 2, "a": 1})
        lines = table.splitlines()
        assert lines[0].strip().startswith("a")
        assert lines[1].strip().startswith("b")

    def test_counter_table_empty(self):
        assert "no counters" in render_counter_table({})

    def test_report_has_both_sections(self):
        report = render_report(self._recorded())
        assert "span tree" in report
        assert "counters" in report
        assert "scale" in report


class TestJsonlSinkErrors:
    def test_unwritable_sink_raises_obs_error(self, tmp_path):
        missing_dir = tmp_path / "does-not-exist" / "events.jsonl"
        ctx = ObsContext(jsonl_path=missing_dir)
        with pytest.raises(ObsError):
            ctx.__enter__()
        assert obs.active() is None

