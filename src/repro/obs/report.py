"""Human-readable rendering of span trees and counters.

One tree renderer draws every span: a recorded :class:`ObsContext`
after ``rapflow profile ...``, and a loaded trace in ``rapflow trace``
and ``rapflow traces``.  Each span is one line,
``name[@origin] [attrs]  (duration)``, flagged ``<< deadline breached``
when a hop blew its budget, followed by one ``name = value`` line per
counter of its own:

* :func:`render_span_tree` — a run context's tree from its root;
* :func:`render_trace` — a merged trace: a header, then each root's
  tree;
* :func:`render_counter_table` — the context-wide counter totals and
  gauges, aligned for eyeballing and greppable in CI logs.

:func:`render_report` concatenates the span tree and the table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

from .context import Number, ObsContext, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .collect import Trace


def _format_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "open"
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _format_value(value: Number) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _span_label(span: Span) -> str:
    origin = span.worker if span.worker is not None else span.role
    label = span.name if origin is None else f"{span.name}@{origin}"
    attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
    if attrs:
        label += f" [{attrs}]"
    label += f"  ({_format_duration(span.duration)})"
    if span.breached_deadline:
        label += "  << deadline breached"
    return label


def _render_span(
    span: Span, lines: List[str], prefix: str = "", connector: str = ""
) -> None:
    lines.append(f"{prefix}{connector}{_span_label(span)}")
    inner = prefix + ("|  " if connector == "|- " else " " * len(connector))
    for name in sorted(span.counters):
        lines.append(f"{inner}  {name} = {_format_value(span.counters[name])}")
    for index, child in enumerate(span.children):
        last = index == len(span.children) - 1
        _render_span(child, lines, inner, "`- " if last else "|- ")


def render_span_tree(context: ObsContext) -> str:
    """The context's span tree, one line per span plus counter lines."""
    lines: List[str] = []
    _render_span(context.root, lines)
    return "\n".join(lines)


def render_trace(trace: "Trace") -> str:
    """One merged trace: a header line, then each root's tree."""
    flags = "  [degraded]" if trace.degraded else ""
    lines = [
        f"trace {trace.trace_id}  "
        f"({_format_duration(trace.duration)}, {len(trace.spans)} spans)"
        f"{flags}"
    ]
    for root in trace.roots:
        _render_span(root, lines)
    return "\n".join(lines)


def render_counter_table(
    counters: Mapping[str, Number], gauges: Optional[Mapping[str, object]] = None
) -> str:
    """Aligned ``name = value`` table of counters (and gauges, if any)."""
    entries: Dict[str, str] = {
        name: _format_value(value) for name, value in counters.items()
    }
    for name, value in (gauges or {}).items():
        entries[name] = str(value)
    if not entries:
        return "(no counters recorded)"
    width = max(len(name) for name in entries)
    return "\n".join(
        f"  {name:<{width}}  {entries[name]}" for name in sorted(entries)
    )


def render_report(context: ObsContext) -> str:
    """Span tree plus counter/gauge table, ready for the CLI."""
    return (
        "span tree\n---------\n"
        + render_span_tree(context)
        + "\n\ncounters\n--------\n"
        + render_counter_table(context.counters, context.gauges)
    )


__all__ = [
    "render_counter_table",
    "render_report",
    "render_span_tree",
    "render_trace",
]
