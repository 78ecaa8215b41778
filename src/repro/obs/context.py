"""The span model, the run recorder, and the module-level hooks.

One :class:`Span` record serves every span: a node of a run's tree
(:class:`ObsContext`) and a hop of a request trace
(:mod:`repro.obs.trace`).  Both write the same event, through the same
:class:`SpanWriter`, when a span closes: one JSON line, keys sorted,
with ``event: "span"``, ``trace_id``, ``span_id``, ``parent_id``,
``name``, ``role``, ``worker``, ``t_start`` (seconds since the
recorder opened) and ``duration``, both rounded to the microsecond;
``attrs`` and ``counters`` when non-empty, and ``gauges`` on an
:class:`ObsContext` root.  :mod:`repro.obs.collect` reads them back,
so a profile file loads like a fleet segment.

Instrumented code calls the hooks (:func:`span`, :func:`count`,
:func:`count_many`, :func:`gauge`), never a recorder.  Two scopes feed
them.  A **request trace** is current in one ``asyncio`` task (a
:class:`contextvars.ContextVar`, set by
:func:`repro.obs.trace.request_span`), because concurrent requests and
hedges cannot share one stack: :func:`span` opens a child of its
current span.  A **run context** is one :class:`ObsContext`, active
process-wide, because work started from another thread (a fleet swap
scheduled from a feed thread) starts from an empty task context:
:func:`span` nests a run span in it when no trace is current.
:func:`count` adds to the current trace span *and* to the run context,
so a traced reply carries the kernel counters of its work.  With
neither scope live, a hook is one context-variable read, one global
read and ``None`` checks (``scripts/check_obs_overhead.py`` holds that
to its contract).

Run timing comes from the context's :class:`~repro.obs.clock.Clock`;
with a :class:`~repro.obs.clock.TickClock` the file is
byte-reproducible, trace id included (a hash of the label and the file
name).  A run context is a stack: open it around sequential work, not
around concurrent untraced requests.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    IO,
    TYPE_CHECKING,
    ContextManager,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from ..errors import ObsError
from .clock import Clock, SystemClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .trace import TraceRecorder

#: Counter value type (ints stay ints until a float lands on them).
Number = Union[int, float]


@dataclass
class Span:
    """One timed section: a node of a run's span tree or a trace hop.

    ``t_start`` is seconds since the recorder opened and ``duration``
    stays ``None`` while the span is open.  ``role`` and ``worker`` name
    the process a trace hop was recorded in; a run span has neither.
    """

    span_id: str
    name: str
    parent_id: Optional[str]
    t_start: float
    duration: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    counters: Dict[str, Number] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    trace_id: str = ""
    role: Optional[str] = None
    worker: Optional[str] = None

    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to one of this span's counters."""
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def breached_deadline(self) -> bool:
        """Did this hop blow its budget (or time out outright)?"""
        status = self.attrs.get("status")
        if status == 504 or status == "timeout":
            return True
        budget = self.attrs.get("budget")
        if (
            isinstance(budget, (int, float))
            and budget > 0
            and self.duration is not None
        ):
            return self.duration >= float(budget)
        return False

    def total_counters(self) -> Dict[str, Number]:
        """This span's counters plus every descendant's, merged."""
        totals: Dict[str, Number] = dict(self.counters)
        for child in self.children:
            for name, value in child.total_counters().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def event(self) -> Dict[str, object]:
        """The completed-span event this span writes when it closes."""
        event: Dict[str, object] = {
            "event": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "role": self.role,
            "worker": self.worker,
            "t_start": round(self.t_start, 6),
            "duration": round(self.duration or 0.0, 6),
        }
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        if self.counters:
            event["counters"] = dict(self.counters)
        return event


class SpanWriter:
    """Appends events to one JSONL file, one line each, flushed per line.

    Every error surfaces as :class:`OSError`: the run context turns it
    into :class:`~repro.errors.ObsError`, a trace recorder into its
    ``degraded`` flag.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[IO[str]] = None

    def open(self, mode: str = "a") -> None:
        """Open the file now (``"w"`` truncates it)."""
        self._handle = self.path.open(mode, encoding="utf-8")

    def write(self, event: Mapping[str, object]) -> None:
        """Append one event, opening the file (and its dir) on first use."""
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.open()
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Close the file (idempotent; a failing close is ignored)."""
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass


class ObsContext:
    """Span/counter recorder for one instrumented run.

    Parameters
    ----------
    clock:
        Time source for span timestamps (default:
        :class:`~repro.obs.clock.SystemClock`).
    jsonl_path:
        Optional path; when given, it is truncated on entry and every
        span's event is appended to it as the span closes (the root
        last, with the gauges).
    label:
        Name of the implicit root span (default ``"run"``).
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        jsonl_path: Optional[Union[str, Path]] = None,
        label: str = "run",
    ) -> None:
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._t0 = self._clock.now()
        self._writer = SpanWriter(jsonl_path) if jsonl_path is not None else None
        file_name = self._writer.path.name if self._writer is not None else ""
        #: Deterministic: the label and the file name, hashed.
        self.trace_id = f"{zlib.crc32(f'{label}/{file_name}'.encode()):016x}"
        self.root = Span(
            span_id="run-0",
            name=label,
            parent_id=None,
            t_start=0.0,
            trace_id=self.trace_id,
        )
        self.counters: Dict[str, Number] = {}
        self.gauges: Dict[str, object] = {}
        self._stack: List[Span] = [self.root]
        self._next_id = 1
        self._entered = False
        self._previous: Optional["ObsContext"] = None

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def __enter__(self) -> "ObsContext":
        global _ACTIVE
        if self._entered:
            raise ObsError("ObsContext cannot be entered twice")
        self._entered = True
        if self._writer is not None:
            try:
                self._writer.open("w")
            except OSError as error:
                raise ObsError(
                    f"cannot open JSONL sink {self._writer.path}: {error}"
                ) from error
        self._previous = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        global _ACTIVE
        try:
            if len(self._stack) != 1:
                open_spans = [span.name for span in self._stack[1:]]
                raise ObsError(
                    f"context closed with open span(s) {open_spans!r}"
                )
            self.root.duration = self._rel()
            self.root.counters = dict(self.counters)
            event = self.root.event()
            if self.gauges:
                event["gauges"] = dict(self.gauges)
            self._write(event)
        finally:
            _ACTIVE = self._previous
            # A span still open here writes nothing when it closes late.
            writer, self._writer = self._writer, None
            if writer is not None:
                writer.close()

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Span:
        """The innermost open span (the root when none is)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """Open a nested span; always closed on exit, even on error."""
        parent = self._stack[-1]
        child = Span(
            span_id=f"run-{self._next_id}",
            name=name,
            parent_id=parent.span_id,
            t_start=self._rel(),
            attrs=dict(attrs),
            trace_id=self.trace_id,
        )
        self._next_id += 1
        parent.children.append(child)
        self._stack.append(child)
        try:
            yield child
        finally:
            child.duration = self._rel() - child.t_start
            self._stack.pop()
            self._write(child.event())

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to a named counter (context + innermost span)."""
        self.counters[name] = self.counters.get(name, 0) + value
        self._stack[-1].count(name, value)

    def count_many(self, counters: Mapping[str, Number]) -> None:
        """Batch :meth:`count` — one call per instrumented flush point."""
        for name, value in counters.items():
            self.count(name, value)

    def gauge(self, name: str, value: object) -> None:
        """Record a last-value-wins observation."""
        self.gauges[name] = value

    def snapshot(self) -> Dict[str, Number]:
        """A copy of the global counter totals (for delta accounting)."""
        return dict(self.counters)

    def counters_since(
        self, snapshot: Mapping[str, Number]
    ) -> Dict[str, Number]:
        """Counter deltas accumulated since :meth:`snapshot`."""
        deltas: Dict[str, Number] = {}
        for name, value in self.counters.items():
            delta = value - snapshot.get(name, 0)
            if delta:
                deltas[name] = delta
        return deltas

    # ------------------------------------------------------------------
    # event sink
    # ------------------------------------------------------------------
    def _rel(self) -> float:
        return self._clock.now() - self._t0

    def _write(self, event: Mapping[str, object]) -> None:
        if self._writer is None:
            return
        try:
            self._writer.write(event)
        except OSError as error:
            raise ObsError(
                f"cannot write JSONL sink {self._writer.path}: {error}"
            ) from error


# ----------------------------------------------------------------------
# module-level hooks (no-ops when neither scope is live)
# ----------------------------------------------------------------------
_ACTIVE: Optional[ObsContext] = None

#: The request trace current in this task: its open span and the
#: recorder that span goes to, so nested instrumentation (the engine)
#: reaches the right segment even when several workers share a process
#: (the chaos harness runs a front and N local workers in one).
_TRACE: "ContextVar[Optional[Tuple[Span, TraceRecorder]]]" = ContextVar(
    "rapflow_trace", default=None
)

#: Reusable do-nothing context manager for the inactive path.
_NULL_SPAN: "ContextManager[None]" = nullcontext()


@contextmanager
def _trace_span(
    recorder: "TraceRecorder",
    trace_id: str,
    parent_id: Optional[str],
    name: str,
    attrs: Dict[str, object],
) -> Iterator[Span]:
    """A request-trace span, current in this task until it closes.

    Timed on the recorder's injected clock and written to its segment
    at exit, exception or not.
    """
    span = Span(
        trace_id=trace_id,
        span_id=recorder.next_span_id(),
        parent_id=parent_id,
        name=name,
        role=recorder.role,
        worker=recorder.worker_id,
        t_start=recorder.elapsed(),
        attrs=dict(attrs),
    )
    token = _TRACE.set((span, recorder))
    try:
        yield span
    finally:
        _TRACE.reset(token)
        span.duration = recorder.elapsed() - span.t_start
        recorder.write(span)


def active() -> Optional[ObsContext]:
    """The currently active run context, or ``None``."""
    return _ACTIVE


def span(name: str, **attrs: object) -> "ContextManager[Optional[Span]]":
    """Open a child of the current trace span, else a run span, else nothing."""
    trace = _TRACE.get()
    if trace is not None:
        parent, recorder = trace
        return _trace_span(
            recorder, parent.trace_id, parent.span_id, name, attrs
        )
    ctx = _ACTIVE
    if ctx is None:
        return _NULL_SPAN
    return ctx.span(name, **attrs)


def count(name: str, value: Number = 1) -> None:
    """Add to a counter of the current trace span and the run context."""
    trace = _TRACE.get()
    if trace is not None:
        trace[0].count(name, value)
    ctx = _ACTIVE
    if ctx is not None:
        ctx.count(name, value)


def count_many(counters: Mapping[str, Number]) -> None:
    """Add several counters at once, where :func:`count` adds one."""
    trace = _TRACE.get()
    if trace is not None:
        for name, value in counters.items():
            trace[0].count(name, value)
    ctx = _ACTIVE
    if ctx is not None:
        ctx.count_many(counters)


def gauge(name: str, value: object) -> None:
    """Record a gauge on the run context (no-op if none)."""
    ctx = _ACTIVE
    if ctx is not None:
        ctx.gauges[name] = value


__all__ = [
    "Number",
    "ObsContext",
    "Span",
    "SpanWriter",
    "active",
    "count",
    "count_many",
    "gauge",
    "span",
]
