"""repro.obs — structured tracing, counters, and profiling hooks.

The observability layer of the reproduction.  One
:class:`~repro.obs.context.ObsContext` records a run: nested spans
(timed via an injectable :class:`~repro.obs.clock.Clock`, so the
deterministic packages stay wall-clock free under lint rule RAP002),
domain counters (CELF lazy skips, gain evaluations, pack stats,
reliability quarantines, ...), gauges, and an optional JSONL event
sink.

Instrumented library code never talks to a context directly — it calls
the module-level hooks re-exported here (:func:`span`, :func:`count`,
:func:`count_many`, :func:`gauge`), which are near-free no-ops when no
context is active::

    from repro import obs

    with obs.ObsContext(jsonl_path="events.jsonl") as ctx:
        placement = CompositeGreedy().place(scenario, k=5)
    print(obs.render_report(ctx))

Surfacing lives in the CLI (``rapflow profile``, ``--obs-jsonl``), the
experiment runner (per-repetition metrics on results objects), and
the benchmark of record, ``perfbench/`` (its per-layer ``kernel.*``
metrics are obs counters).

The serving fleet adds the **distributed** half: cross-process trace
propagation over ``X-Rapflow-Trace`` headers with per-process JSONL
segments (:mod:`repro.obs.trace`), an offline collector that merges
segments into trace trees (:mod:`repro.obs.collect`, surfaced as
``rapflow trace``), fixed-bucket latency histograms for the
``/metrics`` endpoints (:mod:`repro.obs.metrics`), and SLO burn-rate
accounting on the injectable clock (:mod:`repro.obs.slo`).
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .clock import Clock, SystemClock, TickClock
    from .collect import (
        Trace,
        TraceSpan,
        build_traces,
        find_trace,
        load_traces,
        render_trace,
    )
    from .context import (
        Number,
        ObsContext,
        Span,
        active,
        count,
        count_many,
        gauge,
        record_span,
        span,
    )
    from .metrics import LATENCY_BUCKETS_MS, LatencyHistogram, bucket_index
    from .report import render_counter_table, render_report, render_span_tree
    from .slo import SLOConfig, SLOTracker
    from .trace import (
        TRACE_HEADER,
        TraceContext,
        TraceRecorder,
        format_trace_header,
        make_trace_id,
        parse_trace_header,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".clock": ("Clock", "SystemClock", "TickClock"),
    ".collect": (
        "Trace", "TraceSpan", "build_traces", "find_trace", "load_traces",
        "render_trace",
    ),
    ".context": (
        "Number", "ObsContext", "Span", "active", "count", "count_many", "gauge",
        "record_span", "span",
    ),
    ".metrics": ("LATENCY_BUCKETS_MS", "LatencyHistogram", "bucket_index"),
    ".report": ("render_counter_table", "render_report", "render_span_tree"),
    ".slo": ("SLOConfig", "SLOTracker"),
    ".trace": (
        "TRACE_HEADER", "TraceContext", "TraceRecorder", "format_trace_header",
        "make_trace_id", "parse_trace_header",
    ),
})

__all__ = [
    "Clock",
    "LATENCY_BUCKETS_MS",
    "LatencyHistogram",
    "Number",
    "ObsContext",
    "SLOConfig",
    "SLOTracker",
    "Span",
    "SystemClock",
    "TRACE_HEADER",
    "TickClock",
    "Trace",
    "TraceContext",
    "TraceRecorder",
    "TraceSpan",
    "active",
    "bucket_index",
    "build_traces",
    "count",
    "count_many",
    "find_trace",
    "format_trace_header",
    "gauge",
    "load_traces",
    "make_trace_id",
    "parse_trace_header",
    "record_span",
    "render_counter_table",
    "render_report",
    "render_span_tree",
    "render_trace",
    "span",
]
