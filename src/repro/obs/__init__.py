"""repro.obs — one span model for runs and request traces.

Instrumented code calls the module-level hooks re-exported here
(:func:`span`, :func:`count`, :func:`count_many`, :func:`gauge`);
they are near-free no-ops until a recorder is live.  Two scopes feed
the same :class:`Span` record and write the same completed-span JSONL
event (:mod:`repro.obs.context`):

* a run context, :class:`ObsContext`: nested spans timed on an
  injectable :class:`~repro.obs.clock.Clock` (so the deterministic
  packages stay wall-clock free under lint rule RAP002), domain
  counters (CELF lazy skips, gain evaluations, pack stats, reliability
  quarantines, ...), gauges, and an optional JSONL file::

    from repro import obs

    with obs.ObsContext(jsonl_path="events.jsonl") as ctx:
        placement = CompositeGreedy().place(scenario, k=5)
    print(obs.render_report(ctx))

* a request trace across the serving fleet (:mod:`repro.obs.trace`):
  seeded trace ids propagated over ``X-Rapflow-Trace`` headers, one
  JSONL segment per process, and the same hooks adding child spans
  and kernel counters to the request being served.

:mod:`repro.obs.collect` loads either kind of file back into trees
(``rapflow trace``, ``rapflow traces``) and :mod:`repro.obs.report`
renders them (also ``rapflow profile``).  The fleet's ``/metrics``
endpoints use fixed-bucket latency histograms
(:mod:`repro.obs.metrics`) and SLO burn-rate accounting on the
injectable clock (:mod:`repro.obs.slo`).  The benchmark of record,
``perfbench/``, reads its per-layer ``kernel.*`` metrics from obs
counters and its span table from the trace segments.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:
    from .clock import Clock, SystemClock, TickClock
    from .collect import Trace, build_traces, find_trace, load_traces
    from .context import (
        Number,
        ObsContext,
        Span,
        active,
        count,
        count_many,
        gauge,
        span,
    )
    from .metrics import LATENCY_BUCKETS_MS, LatencyHistogram, bucket_index
    from .report import (
        render_counter_table,
        render_report,
        render_span_tree,
        render_trace,
    )
    from .slo import SLOConfig, SLOTracker
    from .trace import (
        TRACE_HEADER,
        TraceRecorder,
        format_trace_header,
        make_trace_id,
        parse_trace_header,
    )

__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".clock": ("Clock", "SystemClock", "TickClock"),
    ".collect": ("Trace", "build_traces", "find_trace", "load_traces"),
    ".context": (
        "Number", "ObsContext", "Span", "active", "count", "count_many", "gauge",
        "span",
    ),
    ".metrics": ("LATENCY_BUCKETS_MS", "LatencyHistogram", "bucket_index"),
    ".report": (
        "render_counter_table", "render_report", "render_span_tree",
        "render_trace",
    ),
    ".slo": ("SLOConfig", "SLOTracker"),
    ".trace": (
        "TRACE_HEADER", "TraceRecorder", "format_trace_header", "make_trace_id",
        "parse_trace_header",
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
    "TraceRecorder",
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
    "render_counter_table",
    "render_report",
    "render_span_tree",
    "render_trace",
    "span",
]
