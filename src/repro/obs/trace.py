"""Cross-process distributed tracing for the serving fleet.

PR 4's :class:`~repro.obs.context.ObsContext` records span trees inside
one process; since the fleet split into a front plus N workers, a hedged
query that degrades to the LRU fallback dies at the HTTP hop with no
artifact explaining why.  This module is the cross-process half:

* every front request gets a **seeded-deterministic** ``trace_id``
  (:func:`make_trace_id` — fleet seed + a monotone request counter, no
  wall clock, no unseeded randomness);
* the trace travels over the ``X-Rapflow-Trace`` header
  (``<trace_id>:<parent_span_id>``, see :func:`format_trace_header`);
* each process appends completed spans to its own **JSONL segment**
  file via a :class:`TraceRecorder` (``front.jsonl``,
  ``worker-w0.jsonl``, ...), tagged with trace id, parent span id,
  process role, worker id, shard digest, attempt number and hedge flag;
* :mod:`repro.obs.collect` merges the segments back into one tree per
  trace and ``rapflow trace <id>`` renders it.

Propagation *inside* a process rides a :class:`contextvars.ContextVar`
(:func:`current` / :func:`activate`), so the engine can emit spans
without threading trace arguments through every call.  Tracing is
**opt-in** per process (a ``trace_dir``): when no recorder was
installed the context variable is never set, and every
hook here degrades to a single ``ContextVar.get`` + ``None`` check —
``scripts/check_obs_overhead.py`` enforces the <5% disabled-mode
contract on the serve path.

Timing always goes through the recorder's injectable
:class:`~repro.obs.clock.Clock` (RAP002: the serve layer never reads
the wall clock directly).
"""

from __future__ import annotations

import json
from contextvars import ContextVar, Token
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Mapping, Optional, Tuple, Union

from .clock import Clock, SystemClock

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
    """Appends completed spans to one per-process JSONL segment.

    One recorder per process role (the fleet front opens
    ``front.jsonl``; each worker opens ``worker-<id>.jsonl``).  Span
    ids are allocated from a local counter prefixed with the origin
    (``front-3``, ``w0-17``), so they are unique fleet-wide without
    coordination and deterministic given the request order.

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
        self._handle: Optional[IO[str]] = None
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
        """Append one completed span to the segment.

        ``start``/``end`` are clock readings; the event stores
        ``t_start`` relative to the recorder's creation (segment-local
        ordering only — cross-process clocks are never compared) and
        the span ``duration``.
        """
        if self._degraded:
            return
        event = {
            "event": "span",
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "role": self.role,
            "worker": self.worker_id,
            "t_start": round(start - self._epoch, 6),
            "duration": round(end - start, 6),
        }
        if attrs:
            event["attrs"] = dict(attrs)
        try:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()
        except OSError:
            # Same stance as the server's latency log: a full disk must
            # not fail requests.  The flag is reported, not raised.
            self._degraded = True
            self.close()

    def close(self) -> None:
        """Close the segment file (idempotent)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


@dataclass(frozen=True)
class TraceContext:
    """The active trace at one point in one process.

    Carries the recorder so nested instrumentation (the engine)
    reaches the *right* segment even when several workers share a
    process (the chaos harness runs front + N local workers in one
    interpreter, each on its own thread and loop).
    """

    trace_id: str
    span_id: str
    recorder: TraceRecorder = field(repr=False)


_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "rapflow_trace", default=None
)


def current() -> Optional[TraceContext]:
    """The task's active trace context, or ``None`` when untraced."""
    return _CURRENT.get()


def activate(context: TraceContext) -> "Token[Optional[TraceContext]]":
    """Make ``context`` current; returns the token for :func:`deactivate`."""
    return _CURRENT.set(context)


def deactivate(token: "Token[Optional[TraceContext]]") -> None:
    """Restore the trace context that was current before ``token``."""
    _CURRENT.reset(token)


def record(
    name: str,
    start: float,
    end: float,
    attrs: Optional[Mapping[str, object]] = None,
    parent: Optional[str] = None,
    context: Optional[TraceContext] = None,
) -> Optional[str]:
    """Record one completed span under the active trace.

    No-op (returns ``None``) when no trace is active — the disabled
    hot path is one ``ContextVar.get`` plus a ``None`` check.  Returns
    the allocated span id otherwise.  ``parent`` defaults to the
    active context's span.
    """
    ctx = context if context is not None else _CURRENT.get()
    if ctx is None:
        return None
    span_id = ctx.recorder.next_span_id()
    ctx.recorder.span(
        ctx.trace_id,
        span_id,
        parent if parent is not None else ctx.span_id,
        name,
        start,
        end,
        attrs,
    )
    return span_id


__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "TraceRecorder",
    "activate",
    "current",
    "deactivate",
    "format_trace_header",
    "make_trace_id",
    "parse_trace_header",
    "record",
]
