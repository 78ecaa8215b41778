"""Request traces across the serving fleet's processes.

A fleet request is one trace: the front's ``front.request`` span, a
``front.attempt`` per replica it tried, the worker's
``worker.request``, and below it ``engine.handle`` with the
algorithm's ``select``.  This module carries that trace between and
within processes:

* every front request gets a **seeded-deterministic** ``trace_id``
  (:func:`make_trace_id` — fleet seed + a monotone request counter, no
  wall clock, no unseeded randomness);
* the trace travels over the ``X-Rapflow-Trace`` header
  (``<trace_id>:<parent_span_id>``, see :func:`format_trace_header`);
* :func:`request_span` opens a trace's first span in a process — from
  the minted id on the front, from the header on a worker — and makes
  it current in the task; below it the ordinary hooks
  (:func:`repro.obs.span`, :func:`repro.obs.count`) open child spans
  and add counters to the current one;
* each process writes its completed spans to its own **JSONL
  segment** through a :class:`TraceRecorder` (``front.jsonl``,
  ``worker-w0.jsonl``, ...), in the event format of
  :mod:`repro.obs.context`; :mod:`repro.obs.collect` merges the
  segments back into one tree per trace and ``rapflow trace <id>``
  renders it.

Tracing is **opt-in** per process (a ``trace_dir``): without a
recorder no trace is ever current, and the hooks pay one
context-variable read.  Span timing always goes through the recorder's
injectable :class:`~repro.obs.clock.Clock` (RAP002: the serve layer
never reads the wall clock directly).
"""

from __future__ import annotations

from pathlib import Path
from typing import ContextManager, Mapping, Optional, Tuple, Union

from .clock import Clock, SystemClock
from .context import _NULL_SPAN, _TRACE, Span, SpanWriter, _trace_span

#: Header carrying ``<trace_id>:<parent_span_id>`` over the fleet's
#: HTTP hops.  Lowercase because the serving layer lowercases incoming
#: header names during framing.
TRACE_HEADER = "x-rapflow-trace"


def make_trace_id(seed: int, index: int) -> str:
    """Deterministic 16-hex-digit trace id for request ``index``.

    Derived from the fleet seed and a per-front monotone counter —
    replaying a seeded chaos run reproduces the exact same ids, so
    trace trees can be diffed across runs.
    """
    return f"{seed & 0xFFFFFFFF:08x}{index & 0xFFFFFFFF:08x}"


def format_trace_header(trace_id: str, span_id: str) -> str:
    """Encode a trace context for the ``X-Rapflow-Trace`` header."""
    return f"{trace_id}:{span_id}"


def parse_trace_header(value: str) -> Optional[Tuple[str, str]]:
    """Decode ``<trace_id>:<span_id>``; ``None`` when malformed.

    Malformed headers are ignored rather than rejected — tracing must
    never turn a servable request into an error.
    """
    trace_id, sep, span_id = value.partition(":")
    if not sep or not trace_id or not span_id:
        return None
    return trace_id, span_id


class TraceRecorder:
    """Writes one process's completed trace spans to a JSONL segment.

    One recorder per process role (the fleet front opens
    ``front.jsonl``; each worker opens ``worker-<id>.jsonl``).  Span
    ids are allocated from a local counter prefixed with the origin
    (``front-3``, ``w0-17``), so they are unique fleet-wide without
    coordination and deterministic given the request order.  A span's
    ``t_start`` counts from the recorder's creation (segment-local
    ordering only — cross-process clocks are never compared).

    A failed write degrades the recorder permanently (mirroring the
    latency log's contract: observability must never take down
    serving); the :attr:`degraded` flag surfaces in ``/healthz``.
    """

    def __init__(
        self,
        path: Union[str, Path],
        role: str,
        worker_id: Optional[str] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.path = Path(path)
        self.role = role
        self.worker_id = worker_id
        self.clock = clock if clock is not None else SystemClock()
        self._origin = worker_id if worker_id is not None else role
        self._counter = 0
        self._writer = SpanWriter(self.path)
        self._degraded = False
        self._epoch = self.clock.now()

    @property
    def degraded(self) -> bool:
        """True once a write failed and the segment went dark."""
        return self._degraded

    def next_span_id(self) -> str:
        """Allocate the next process-unique span id."""
        span_id = f"{self._origin}-{self._counter}"
        self._counter += 1
        return span_id

    def elapsed(self) -> float:
        """Seconds since this recorder was created, on its clock."""
        return self.clock.now() - self._epoch

    def span(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        end: float,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Append one completed span timed by the clock readings given."""
        self.write(
            Span(
                trace_id=trace_id,
                span_id=span_id,
                parent_id=parent_id,
                name=name,
                role=self.role,
                worker=self.worker_id,
                t_start=start - self._epoch,
                duration=end - start,
                attrs=dict(attrs or {}),
            )
        )

    def write(self, span: Span) -> None:
        """Append a closed span's event (dropped once degraded)."""
        if self._degraded:
            return
        try:
            self._writer.write(span.event())
        except OSError:
            # Same stance as the server's latency log: a full disk must
            # not fail requests.  The flag is reported, not raised.
            self._degraded = True
            self._writer.close()

    def close(self) -> None:
        """Close the segment file (idempotent)."""
        self._writer.close()


def request_span(
    recorder: Optional[TraceRecorder],
    parent: Optional[Tuple[str, Optional[str]]],
    name: str,
) -> "ContextManager[Optional[Span]]":
    """Open a request's first span in this process and make it current.

    ``parent`` is ``(trace_id, parent_span_id)``: a freshly minted id
    and ``None`` on the front, the parsed ``X-Rapflow-Trace`` header on
    a worker.  The span is written at exit, exception or not.  With no
    recorder or no parent this is the hooks' shared no-op (yields
    ``None``).
    """
    if recorder is None or parent is None:
        return _NULL_SPAN
    trace_id, parent_id = parent
    return _trace_span(recorder, trace_id, parent_id, name, {})


def current() -> Optional[Span]:
    """The trace span current in this task, or ``None`` when untraced."""
    trace = _TRACE.get()
    return None if trace is None else trace[0]


__all__ = [
    "TRACE_HEADER",
    "TraceRecorder",
    "current",
    "format_trace_header",
    "make_trace_id",
    "parse_trace_header",
    "request_span",
]
