"""Load span events back into trees: fleet segments and profile files.

Every recorder writes the same completed-span event
(:mod:`repro.obs.context`), so one loader reads a fleet's per-process
segments and an ``--obs-jsonl`` profile file alike; nothing at runtime
joins them — that is this module's job, offline:

* :func:`load_segments` reads every ``*.jsonl`` file in a directory
  (foreign lines, torn tails and events with unusable ids or times are
  skipped — segments are best-effort by design);
* :func:`build_traces` stitches the spans into one :class:`Trace` per
  trace id, linking children to parents by span id — a span whose
  parent lives in a *lost* segment (worker killed mid-write) becomes
  an extra root rather than disappearing;
* :func:`slowest` and :func:`degraded` answer the two questions chaos
  triage always starts with.

``rapflow trace <id>`` and ``rapflow traces`` are thin CLI wrappers
over these functions and :func:`repro.obs.report.render_trace`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from ..errors import ObsError
from .context import Span

#: The old name of a loaded span, kept for perfbench's tests until the
#: next change to the benchmark (see ROADMAP, "Next benchmark change").
TraceSpan = Span


@dataclass
class Trace:
    """All spans of one trace id, stitched into a forest.

    Normally a single tree rooted at the front's request span (or a
    run's root span); spans whose parents were lost (killed worker,
    torn segment) surface as additional roots so the evidence is never
    silently dropped.
    """

    trace_id: str
    spans: Dict[str, Span]
    roots: List[Span]

    @property
    def duration(self) -> float:
        """The longest root span — the end-to-end view of the trace."""
        return max((root.duration or 0.0 for root in self.roots), default=0.0)

    @property
    def degraded(self) -> bool:
        """True when any hop served (or recorded) a degraded outcome."""
        return any(span.attrs.get("degraded") for span in self.spans.values())

    def named(self, name: str) -> List[Span]:
        """Every span called ``name``, in segment order."""
        return [s for s in self.spans.values() if s.name == name]


def load_segments(
    trace_dir: Union[str, Path]
) -> List[Dict[str, object]]:
    """Read every span event from every ``*.jsonl`` segment in a dir."""
    directory = Path(trace_dir)
    if not directory.is_dir():
        raise ObsError(f"trace directory not found: {directory}")
    events: List[Dict[str, object]] = []
    for path in sorted(directory.glob("*.jsonl")):
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError as error:
            raise ObsError(
                f"cannot read trace segment {path}: {error}"
            ) from error
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of a killed worker's segment
            if isinstance(event, dict) and event.get("event") == "span":
                events.append(event)
    return events


def _seconds(value: object) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _optional_str(value: object) -> Optional[str]:
    return value if isinstance(value, str) else None


def _span_from_event(event: Dict[str, object]) -> Optional[Span]:
    trace_id = event.get("trace_id")
    span_id = event.get("span_id")
    t_start = _seconds(event.get("t_start"))
    duration = _seconds(event.get("duration"))
    if (
        not isinstance(trace_id, str)
        or not isinstance(span_id, str)
        or t_start is None
        or duration is None
    ):
        return None
    attrs = event.get("attrs")
    counters = event.get("counters")
    return Span(
        trace_id=trace_id,
        span_id=span_id,
        parent_id=_optional_str(event.get("parent_id")),
        name=str(event.get("name", "?")),
        role=_optional_str(event.get("role")),
        worker=_optional_str(event.get("worker")),
        t_start=t_start,
        duration=duration,
        attrs=dict(attrs) if isinstance(attrs, dict) else {},
        counters=dict(counters) if isinstance(counters, dict) else {},
    )


def build_traces(
    events: Iterable[Dict[str, object]]
) -> Dict[str, Trace]:
    """Group span events by trace id and link children to parents."""
    by_trace: Dict[str, Dict[str, Span]] = {}
    for event in events:
        span = _span_from_event(event)
        if span is None:
            continue
        by_trace.setdefault(str(span.trace_id), {})[span.span_id] = span
    traces: Dict[str, Trace] = {}
    for trace_id, spans in by_trace.items():
        roots: List[Span] = []
        for span in spans.values():
            parent = spans.get(span.parent_id) if span.parent_id else None
            if parent is None:
                roots.append(span)
            else:
                parent.children.append(span)
        for span in spans.values():
            span.children.sort(key=lambda child: child.t_start)
        roots.sort(key=lambda root: root.t_start)
        traces[trace_id] = Trace(trace_id=trace_id, spans=spans, roots=roots)
    return traces


def load_traces(trace_dir: Union[str, Path]) -> Dict[str, Trace]:
    """Segments → traces in one call (the CLI entry point)."""
    return build_traces(load_segments(trace_dir))


def find_trace(trace_dir: Union[str, Path], trace_id: str) -> Trace:
    """Load one trace by id, or raise :class:`~repro.errors.ObsError`."""
    traces = load_traces(trace_dir)
    trace = traces.get(trace_id)
    if trace is None:
        raise ObsError(
            f"trace {trace_id!r} not found in {trace_dir} "
            f"({len(traces)} traces present)"
        )
    return trace


def slowest(traces: Dict[str, Trace], k: int) -> List[Trace]:
    """The ``k`` traces with the longest end-to-end duration."""
    if k < 1:
        raise ObsError(f"slowest wants k >= 1, got {k}")
    ranked = sorted(
        traces.values(), key=lambda trace: trace.duration, reverse=True
    )
    return ranked[:k]


def degraded(traces: Dict[str, Trace]) -> List[Trace]:
    """Every trace that served (or recorded) a degraded outcome."""
    return [
        trace
        for trace in sorted(traces.values(), key=lambda t: t.trace_id)
        if trace.degraded
    ]


__all__ = [
    "Trace",
    "build_traces",
    "degraded",
    "find_trace",
    "load_segments",
    "load_traces",
    "slowest",
]
