"""Fault-tolerant serving fleet: one front, N supervised workers.

One :class:`PlacementFleet` runs a routing front over worker replicas,
each an independent :class:`~repro.serve.server.PlacementServer`
serving a content-addressed artifact.  The front and the workers share
one service skeleton (:class:`~repro.serve.server.JsonService`): the
same connection loop, router, ``Retry-After`` and stop path, run by the
same :func:`~repro.serve.server.run_server` and
:class:`~repro.serve.testing.ServerThread`.  Requests are routed by
scenario digest: the fleet carries one or more **shards** (digest →
worker group, the GreeDi-style partition topology from the
billboard-placement companion paper), a client addresses a non-default
shard with the ``X-Rapflow-Digest`` header, and every worker reply must
carry its shard's digest — a mismatched digest is treated as a corrupt
reply, never returned to the caller.

The fleet stays alive under injected failure through four mechanisms:

* **worker lifecycle** — the supervisor heartbeats every worker's
  ``/healthz`` on the injectable :class:`~repro.obs.clock.Clock`;
  ``max_missed`` consecutive missed probes (crash *or* stall — a wedged
  event loop misses probes exactly like a dead process) mark the worker
  down and schedule a respawn with exponential backoff and seeded
  jitter.  A per-worker circuit breaker counts respawns inside a sliding
  window and **ejects** a flapping worker instead of respawning it
  forever.
* **request resilience** — the front forwards its remaining deadline
  budget via ``X-Rapflow-Deadline`` (a worker never works longer than
  the front will wait), retries every request kind on other replicas
  with backoff + jitter — all four are pure reads of a content-addressed
  artifact, so a repeat cannot change anything — and can hedge: after a
  p95-based delay a second copy of the request races on another replica
  and the first reply wins.
* **graceful degradation** — every good reply feeds a bounded
  front-side LRU; when no replica can answer, the front replays the
  cached reply marked ``"degraded": true`` instead of failing, and only
  answers 503 when it has nothing cached.  It is the front's only
  cache: a reply a worker can give comes from the worker, whose engine
  LRU answers repeats.
* **tiered load shedding** — admission is budgeted per request kind (see
  :data:`SHED_TIERS`), so under overload cheap ``evaluate`` queries
  survive longer than expensive ``place`` runs; shedding state is
  exported as obs gauges and in the front's ``/healthz``.

Workers come in two interchangeable shapes: :class:`LocalWorker` (an
in-process :class:`~repro.serve.testing.ServerThread` — deterministic
and fast, used by tests and the chaos harness, with ``kill`` / stall
hooks) and :class:`ProcessWorker` (a real ``python -m repro serve``
subprocess sharing the artifact cache directory, used by
``rapflow serve --workers N``).
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import random
import subprocess
import sys
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .. import obs
from ..errors import ObsError, ServeRequestError, ServeWorkerError
from ..obs import trace as obs_trace
from ..obs.clock import Clock, SystemClock
from ..obs.metrics import LatencyHistogram
from ..obs.slo import SLOConfig, SLOTracker
from .server import (
    DEADLINE_HEADER,
    DIGEST_HEADER,
    JsonService,
    close_quietly,
    sanitizer_health,
    split_head,
)

if TYPE_CHECKING:
    from .testing import ServerThread

# DIGEST_HEADER (re-exported from .server): a client addresses a
# specific shard (scenario digest) behind a multi-shard front with it.
# Absent, the front's default shard answers; an unknown digest is a 404
# (the front serves no such shard).

#: Tiered admission budgets, as fractions of the front's
#: ``max_inflight``: under overload the cheap read path keeps its full
#: budget while expensive optimization runs are shed first — the same
#: cost-aware prioritization the companion scheduling formulation's
#: admission policy (Algorithm 5, *Scheduling Advertisement Delivery in
#: Vehicular Networks*) applies to delivery slots.
SHED_TIERS: Dict[str, float] = {
    "evaluate": 1.0,
    "what_if": 0.5,
    "top_gains": 0.5,
    "place": 0.25,
}

#: Latency samples retained per worker (p95/p99 estimation).
_LATENCY_WINDOW = 256


@dataclass
class RetryPolicy:
    """Front-side retry/hedging knobs, applied to every request kind.

    ``retries`` counts *extra* attempts across replicas; ``backoff`` /
    ``backoff_cap`` shape the exponential sleep between attempts,
    ``jitter`` the randomized fraction of it (seeded at the fleet
    level).  ``hedge=True`` races a second replica after
    ``hedge_delay`` seconds — or, once enough samples exist, after the
    observed p95 fleet latency — and takes whichever reply lands first.
    """

    retries: int = 2
    backoff: float = 0.02
    backoff_cap: float = 0.5
    jitter: float = 0.5
    hedge: bool = False
    hedge_delay: float = 0.05

    def validate(self) -> None:
        if self.retries < 0:
            raise ServeRequestError(
                f"retries must be >= 0, got {self.retries}"
            )
        if not (0.0 <= self.jitter <= 1.0):
            raise ServeRequestError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )


@dataclass
class FleetConfig:
    """Supervision and admission knobs for one :class:`PlacementFleet`.

    ``workers`` counts replicas **per shard**.  ``slo`` carries the
    availability/latency targets the front's burn-rate accounting
    (``/healthz`` → ``slo``) runs against; ``trace_dir`` opts the front
    into distributed tracing (its ``front.jsonl`` segment lands there —
    workers need their own ``trace_dir`` to contribute worker spans).
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    max_inflight: int = 64
    timeout: float = 30.0
    heartbeat_interval: float = 0.1
    heartbeat_timeout: float = 0.5
    max_missed: int = 2
    respawn_backoff: float = 0.05
    respawn_backoff_cap: float = 2.0
    breaker_threshold: int = 5
    breaker_window: float = 30.0
    degraded_cache_size: int = 256
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    seed: int = 0
    # Read only by perfbench/fleet_host.py, which passes the
    # ``rapflow serve`` defaults.  The front does not batch, so
    # validate() refuses a window rather than ignore it.
    front_batch_window: float = 0.0
    front_max_batch: int = 256
    front_bypass: int = 4
    slo: SLOConfig = field(default_factory=SLOConfig)
    trace_dir: Optional[Union[str, Path]] = None

    def validate(self) -> None:
        if self.workers < 1:
            raise ServeRequestError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.front_batch_window != 0:
            raise ServeRequestError(
                "the fleet front no longer batches; front_batch_window "
                f"must be 0, got {self.front_batch_window}"
            )
        if self.max_inflight < 1:
            raise ServeRequestError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.heartbeat_interval <= 0 or self.heartbeat_timeout <= 0:
            raise ServeRequestError("heartbeat knobs must be > 0")
        if self.max_missed < 1:
            raise ServeRequestError(
                f"max_missed must be >= 1, got {self.max_missed}"
            )
        if self.breaker_threshold < 1:
            raise ServeRequestError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        self.retry.validate()
        try:
            self.slo.validate()
        except ObsError as error:
            raise ServeRequestError(f"invalid SLO config: {error}") from None


# ----------------------------------------------------------------------
# workers
# ----------------------------------------------------------------------
class LocalWorker:
    """In-process worker: a :class:`ServerThread` behind the interface.

    ``engine_factory`` builds a fresh engine per (re)spawn, so a
    respawned worker starts from clean state the way a restarted process
    would.  Chaos hooks (:meth:`kill`, :meth:`inject_stall`) pass
    through to the thread harness.
    """

    def __init__(
        self,
        worker_id: str,
        engine_factory: Callable[[], object],
        **server_kwargs: object,
    ) -> None:
        self.worker_id = worker_id
        self._engine_factory = engine_factory
        self._server_kwargs = server_kwargs
        self._handle: Optional[ServerThread] = None

    def start(self) -> None:
        """Spawn the server thread (blocking until the port is bound)."""
        # Here, not at module level: the harness imports the HTTP client
        # (http.client, email), which a process-worker front never uses.
        from .testing import ServerThread

        engine = self._engine_factory()
        kwargs = dict(self._server_kwargs)
        kwargs.setdefault("worker_label", self.worker_id)
        self._handle = ServerThread(engine, **kwargs)
        self._handle.__enter__()

    def stop(self) -> None:
        """Graceful stop (drain, then join)."""
        if self._handle is not None:
            self._handle.stop()
            self._handle = None

    def kill(self) -> None:
        """Abrupt stop — the in-process ``SIGKILL`` analogue."""
        if self._handle is not None:
            self._handle.kill()
            self._handle = None

    def inject_stall(self, seconds: float) -> None:
        """Wedge the worker's event loop for ``seconds`` (chaos hook)."""
        if self._handle is None:
            raise ServeWorkerError(
                f"worker {self.worker_id} is not running"
            )
        self._handle.inject_stall(seconds)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` of the running worker."""
        handle = self._handle
        if handle is not None:
            try:
                return handle.server.host, handle.port
            except ServeRequestError:
                pass  # mid-kill: socket closed, thread not yet joined
        raise ServeWorkerError(f"worker {self.worker_id} is not running")


class ProcessWorker:
    """Subprocess worker: ``python -m repro serve`` on an ephemeral port.

    The child announces its bound address through ``--ready-file``; the
    parent pre-compiles the artifact into the shared ``--cache-dir``
    before spawning, so every child disk-loads the same digest instead
    of recompiling.  The child's stderr is appended to
    ``<ready_dir>/<worker_id>.log``.  The waiting loop uses an
    injectable sleeper and the injected clock (RAP002: the serve layer
    never calls the wall clock directly).
    """

    def __init__(
        self,
        worker_id: str,
        serve_args: Sequence[str],
        ready_dir: Union[str, Path],
        start_timeout: float = 60.0,
        clock: Optional[Clock] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.worker_id = worker_id
        self._serve_args = list(serve_args)
        self._ready_dir = Path(ready_dir)
        self._start_timeout = start_timeout
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._sleep = sleep if sleep is not None else time.sleep
        self._process: Optional[subprocess.Popen] = None
        self._address: Optional[Tuple[str, int]] = None

    def start(self) -> None:
        """Spawn the subprocess and wait for its ready file."""
        ready = self._ready_dir / f"{self.worker_id}.ready"
        if ready.exists():
            ready.unlink()
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *self._serve_args,
            "--port",
            "0",
            "--ready-file",
            str(ready),
            "--worker-label",
            self.worker_id,
        ]
        log = self._ready_dir / f"{self.worker_id}.log"
        with open(log, "ab") as handle:
            offset = handle.tell()
            self._process = subprocess.Popen(
                argv,
                stdout=subprocess.DEVNULL,
                stderr=handle,
            )
        deadline = self._clock.now() + self._start_timeout
        while True:
            if ready.exists():
                text = ready.read_text().strip()
                if text:
                    host, port = text.split()
                    self._address = (host, int(port))
                    return
            if self._process.poll() is not None:
                raise ServeWorkerError(
                    f"worker {self.worker_id} exited with code "
                    f"{self._process.returncode} before binding"
                    + _log_tail(log, offset)
                )
            if self._clock.now() > deadline:
                self._process.kill()
                self._process.wait()
                raise ServeWorkerError(
                    f"worker {self.worker_id} did not become ready within "
                    f"{self._start_timeout:g}s" + _log_tail(log, offset)
                )
            self._sleep(0.02)

    def stop(self) -> None:
        """Graceful stop: SIGTERM (the server drains), then wait."""
        if self._process is None:
            return
        self._process.terminate()
        try:
            self._process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process = None

    def kill(self) -> None:
        """SIGKILL — no drain."""
        if self._process is None:
            return
        self._process.kill()
        self._process.wait()
        self._process = None

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` announced through the ready file."""
        if self._address is None:
            raise ServeWorkerError(
                f"worker {self.worker_id} is not running"
            )
        return self._address


def _log_tail(log: Path, offset: int, lines: int = 5) -> str:
    """The last ``lines`` lines a child wrote to ``log`` past ``offset``,
    as a suffix for its start-up error (empty when it wrote nothing)."""
    with open(log, "rb") as handle:
        handle.seek(offset)
        text = handle.read().decode("utf-8", "replace")
    tail = [line for line in text.splitlines() if line.strip()][-lines:]
    if not tail:
        return ""
    return f"; its stderr ({log}) ends: " + " | ".join(tail)


def _in_order(*steps: Callable[[], object]) -> None:
    """Call ``steps`` one after another, as one executor job."""
    for step in steps:
        step()


_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class _WorkerConnections:
    """Idle keep-alive connections from the front to one worker.

    A pool belongs to one worker incarnation: the front closes it when
    the worker goes down or is stopped, and a respawned worker gets a
    fresh one, so no connection outlives the process it talks to.  Only
    a connection that carried a complete reply not marked ``Connection:
    close`` is handed back (:meth:`give`); a closed pool, or one holding
    ``cap`` idle connections already, closes it instead.
    """

    def __init__(self, cap: int) -> None:
        self._cap = cap
        self._idle: List[_Connection] = []
        self.closed = False

    def take(self) -> Optional[_Connection]:
        """The most recently used idle connection, or ``None``.

        A connection the worker has hung up on is not screened out here:
        the exchange notices it before the first reply byte and resends.
        """
        return self._idle.pop() if self._idle else None

    def give(self, conn: _Connection) -> None:
        if self.closed or len(self._idle) >= self._cap:
            conn[1].close()
        else:
            self._idle.append(conn)

    def close(self) -> List[asyncio.StreamWriter]:
        """Close every idle connection; later :meth:`give` calls close too.

        Returns the closed writers, for a caller that must wait until the
        worker has been told (:func:`~repro.serve.server.close_quietly`).
        """
        self.closed = True
        closing = [writer for _, writer in self._idle]
        for writer in closing:
            writer.close()
        self._idle.clear()
        return closing


class _WorkerSlot:
    """Supervisor bookkeeping for one worker replica.

    ``index`` is fleet-global (stable across shards), ``replica`` is the
    shard-local position handed to the factory, ``digest`` names the
    shard the replica serves, and ``factory`` is kept so respawns build
    a replica of the *same* shard.  ``idle_cap`` bounds the idle
    connections the front keeps open to the replica.
    """

    def __init__(
        self,
        index: int,
        worker: object,
        digest: str,
        replica: int,
        factory: Callable[[int], object],
        idle_cap: int,
    ) -> None:
        self.index = index
        self.worker = worker
        self.digest = digest
        self.replica = replica
        self.factory = factory
        self.idle_cap = idle_cap
        self.pool = _WorkerConnections(idle_cap)
        # starting | up | down | respawning | ejected | stopping
        self.state = "starting"
        self.missed = 0
        self.respawns = 0
        #: The pending respawn, if any; stopping the slot cancels it.
        self.respawn: Optional["asyncio.Task[None]"] = None
        self.respawn_times: Deque[float] = deque()
        self.backoff_attempt = 0
        self.latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self.inflight = 0
        self.last_error: Optional[str] = None
        #: Selected fields of the worker's last healthy ``/healthz``
        #: reply (restore provenance) — the front's window into
        #: per-worker memory/attach accounting.
        self.last_health: Optional[Dict[str, object]] = None

    @property
    def worker_id(self) -> str:
        return getattr(self.worker, "worker_id", f"w{self.index}")

    def percentile(self, fraction: float) -> Optional[float]:
        """Latency percentile over the recent window (None = no data)."""
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank]

    def to_dict(self) -> Dict[str, object]:
        return {
            "id": self.worker_id,
            "digest": self.digest,
            "state": self.state,
            "missed": self.missed,
            "respawns": self.respawns,
            "inflight": self.inflight,
            "latency_samples": len(self.latencies),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "last_error": self.last_error,
            "health": self.last_health,
        }


# ----------------------------------------------------------------------
# the fleet
# ----------------------------------------------------------------------
class PlacementFleet(JsonService):
    """Routing front + supervisor over replicated, digest-keyed shards.

    Parameters
    ----------
    worker_factory:
        ``worker_factory(index) -> worker`` builds a replica of the
        default shard; it is called again on every respawn, so each
        respawn is a genuinely fresh worker.  Ignored when ``shards``
        is given.
    digest:
        The default shard's scenario digest — the shard that answers
        requests carrying no ``X-Rapflow-Digest`` header.  Every worker
        reply must echo its shard's digest; replies that do not are
        dropped as corrupt and retried.
    config:
        Supervision/admission knobs (:class:`FleetConfig`);
        ``config.workers`` replicas spawn per shard.
    clock:
        Injected time source for heartbeat deadlines and latency
        accounting (RAP002).
    shards:
        Optional full shard map ``{digest: worker_factory}`` for a
        multi-shard front; must contain ``digest``.  Omitted, the fleet
        serves the single shard ``{digest: worker_factory}``.
    """

    _counter_prefix = "fleet"

    def __init__(
        self,
        worker_factory: Optional[Callable[[int], object]],
        digest: str,
        config: Optional[FleetConfig] = None,
        clock: Optional[Clock] = None,
        shards: Optional[Dict[str, Callable[[int], object]]] = None,
    ) -> None:
        if shards:
            self._shards: Dict[str, Callable[[int], object]] = dict(shards)
            if digest not in self._shards:
                raise ServeRequestError(
                    f"default digest {digest[:12]} is not one of the "
                    f"{len(self._shards)} configured shards"
                )
        else:
            if worker_factory is None:
                raise ServeRequestError(
                    "either worker_factory or shards must be given"
                )
            self._shards = {digest: worker_factory}
        self._digest = digest
        self._config = config if config is not None else FleetConfig()
        self._config.validate()
        self._clock: Clock = clock if clock is not None else SystemClock()
        self._rng = random.Random(self._config.seed)
        self._slots: List[_WorkerSlot] = []
        self._supervisor: Optional["asyncio.Task[None]"] = None
        self._inflight = 0
        self._next_slot = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._swaps = 0
        self._last_swap: Optional[Dict[str, object]] = None
        self._degraded_cache: "OrderedDict[str, Dict[str, object]]" = (
            OrderedDict()
        )
        self.shed: Dict[str, int] = {kind: 0 for kind in SHED_TIERS}
        self.served = 0
        self.retries = 0
        self.hedges = 0
        self.degraded = 0
        self.corrupt_detected = 0
        self.rejected = 0
        #: Connections the front opened to workers, and requests it
        #: resent after a pooled connection turned out stale.
        self.worker_connects = 0
        self.worker_resends = 0
        self.shard_served: Dict[str, int] = {
            shard: 0 for shard in self._shards
        }
        tracer = None
        if self._config.trace_dir is not None:
            tracer = obs_trace.TraceRecorder(
                Path(self._config.trace_dir) / "front.jsonl",
                role="front",
                clock=self._clock,
            )
        super().__init__(self._config.host, self._config.port, tracer)
        #: Monotone per-front request counter feeding the seeded trace
        #: ids (seed + index — deterministic, wall-clock free).
        self._trace_index = 0
        self._metrics = LatencyHistogram()
        self._slo = SLOTracker(self._config.slo, self._clock)

    # -- lifecycle ------------------------------------------------------
    @property
    def digest(self) -> str:
        """The default shard's scenario digest."""
        return self._digest

    @property
    def shard_digests(self) -> List[str]:
        """Every digest this front routes (default shard first)."""
        ordered = [self._digest]
        ordered.extend(
            shard for shard in self._shards if shard != self._digest
        )
        return ordered

    @property
    def config(self) -> FleetConfig:
        """The fleet's configuration."""
        return self._config

    async def start(self) -> None:
        """Spawn every worker, bind the front, start the supervisor;
        a start that fails stops the workers it started."""
        from ..devtools import sanitize  # local: opt-in tooling, lazy

        sanitize.install_async_if_enabled()
        self._loop = asyncio.get_running_loop()
        self._slots = await self._spawn(
            [(shard, self._shards[shard]) for shard in self.shard_digests]
        )
        try:
            await self._listen()
        except BaseException:  # rapflow: noqa[RAP003] stop-and-reraise cleanup
            await self._stop_slots(self._slots, "fleet.shutdown_errors")
            raise
        self._supervisor = self._loop.create_task(self._supervise())

    async def shutdown(self) -> None:
        """Stop the supervisor, close the front and its idle connections,
        stop every worker, close the trace segment."""
        self._draining = True
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
        await self._stop_listening(timeout=5.0)
        await self._stop_slots(self._slots, "fleet.shutdown_errors")
        self._stopped("fleet.shutdown")

    async def _spawn(
        self, shards: Sequence[Tuple[str, Callable[[int], object]]]
    ) -> List[_WorkerSlot]:
        """Start ``config.workers`` replicas of each shard, all at once.

        Slot indices continue after the fleet's highest.  Each new slot
        is marked ``up`` or ``down`` by how its start went; a shard with
        no replica up raises :class:`ServeWorkerError`, after every new
        slot is stopped.
        """
        first = max((slot.index for slot in self._slots), default=-1) + 1
        slots = [
            _WorkerSlot(
                first + position * self._config.workers + replica,
                factory(replica),
                digest,
                replica,
                factory,
                self._config.max_inflight,
            )
            for position, (digest, factory) in enumerate(shards)
            for replica in range(self._config.workers)
        ]
        loop = asyncio.get_running_loop()
        results = await asyncio.gather(
            *(loop.run_in_executor(None, slot.worker.start) for slot in slots),
            return_exceptions=True,
        )
        for slot, result in zip(slots, results):
            if isinstance(result, BaseException):
                slot.state = "down"
                obs.count("fleet.spawn_failures")
            else:
                slot.state = "up"
        for digest, _ in shards:
            if not any(
                slot.state == "up" for slot in slots if slot.digest == digest
            ):
                await self._stop_slots(slots, "fleet.spawn_stop_errors")
                raise ServeWorkerError(
                    f"no worker came up for shard {digest[:12]}"
                )
        return slots

    async def _stop_slots(
        self, slots: Sequence[_WorkerSlot], error_counter: str
    ) -> None:
        """Cancel each slot's respawn, close its pools, stop its worker.

        A pending respawn is cancelled and awaited first, so it cannot
        start a worker after the slot is gone; one cancelled mid-start
        stops the worker it started (see :meth:`_respawn`).  The pools
        go next: a worker's graceful drain waits for its open
        connections (``Server.wait_closed`` does from Python 3.12), so
        idle keep-alive connections still held here would stall it.
        The closes are awaited, so the hang-up is on the wire before the
        worker is told to stop.  Marking the slots ``stopping`` keeps
        probes, forwards and the ``/metrics`` fan-out from opening new
        connections in the meantime.  Workers that were up get a
        graceful stop; the others (down, ejected, or never reaped by a
        cancelled respawn) are killed, as a respawn would have.
        """
        respawns = [slot.respawn for slot in slots if slot.respawn is not None]
        for task in respawns:
            task.cancel()
        running = [slot for slot in slots if slot.state in ("up", "starting")]
        for slot in slots:
            slot.state = "stopping"
        closing = [writer for slot in slots for writer in slot.pool.close()]
        await asyncio.gather(
            *(close_quietly(writer, where="fleet") for writer in closing)
        )
        # CancelledError is not an Exception, so the cancellations just
        # requested pass the filter below; anything else is a respawn
        # path failure that must not vanish into the drain.
        outcomes = await asyncio.gather(*respawns, return_exceptions=True)
        loop = asyncio.get_running_loop()
        outcomes += await asyncio.gather(
            *(
                loop.run_in_executor(
                    None,
                    slot.worker.stop if slot in running else slot.worker.kill,
                )
                for slot in slots
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                obs.count(error_counter)

    def worker_handle(self, index: int) -> object:
        """The live worker in slot ``index`` (chaos-harness hook).

        Respawns replace the slot's worker object, so callers must not
        cache the handle across failures.
        """
        return self._slots[index].worker

    # -- hot swap -------------------------------------------------------
    async def swap_default_shard(
        self,
        digest: str,
        worker_factory: Optional[Callable[[int], object]] = None,
        *,
        retire_old: bool = True,
        drain_timeout: float = 30.0,
    ) -> Dict[str, object]:
        """Atomically make ``digest`` the default shard, draining the old.

        The sequence is: spawn the new shard's replicas (unless the
        digest already has a shard), wait until at least one is up, flip
        ``self._digest`` — a single assignment on the event loop, so
        every request that has not yet read the default routes to the
        new shard while requests already in flight finish against the
        old one — then, with ``retire_old``, wait for the old shard's
        in-flight requests to drain and stop its workers.
        No request is ever dropped: each one serves against whichever
        shard it was routed to when it arrived.

        Must run on the fleet's event loop; from another thread use
        :meth:`request_swap`.
        """
        if self._draining:
            raise ServeRequestError("cannot swap shards while draining")
        old = self._digest
        if digest == old:
            return {"from": old, "to": digest, "seconds": 0.0, "spawned": 0}
        started = self._clock.now()
        spawned = 0
        with obs.span("fleet.swap", old=old[:12], new=digest[:12]):
            if digest not in self._shards:
                if worker_factory is None:
                    raise ServeRequestError(
                        f"shard {digest[:12]} is unknown and no "
                        "worker_factory was given"
                    )
                # A failed spawn raises here and leaves the fleet as it was.
                new_slots = await self._spawn([(digest, worker_factory)])
                spawned = sum(slot.state == "up" for slot in new_slots)
                self._slots.extend(new_slots)
                self._shards[digest] = worker_factory
                self.shard_served.setdefault(digest, 0)
            # The flip: a single assignment on the event loop.  Requests
            # that resolved their digest before this instant finish on
            # the old shard; everything after routes to the new one.
            self._digest = digest
            obs.count("fleet.swaps")
            if retire_old:
                await self._retire_shard(old, drain_timeout)
        seconds = self._clock.now() - started
        self._swaps += 1
        self._last_swap = {
            "from": old,
            "to": digest,
            "seconds": seconds,
            "spawned": spawned,
            "retired": retire_old,
        }
        return dict(self._last_swap)

    async def _retire_shard(self, digest: str, drain_timeout: float) -> None:
        """Drain and stop one non-default shard's workers.

        Waits for in-flight requests against the shard to finish (the
        flip already diverted new traffic), stops its workers, and drops
        its routing entry — requests still addressing the digest
        explicitly get a clean 404 afterwards.
        """
        if digest == self._digest or digest not in self._shards:
            return
        deadline = self._clock.now() + drain_timeout
        old_slots = [slot for slot in self._slots if slot.digest == digest]
        while any(slot.inflight > 0 for slot in old_slots):
            if self._clock.now() >= deadline:
                obs.count("fleet.swap_drain_timeouts")
                break
            await asyncio.sleep(0.005)
        await self._stop_slots(old_slots, "fleet.swap_stop_errors")
        self._slots = [
            slot for slot in self._slots if slot.digest != digest
        ]
        del self._shards[digest]
        obs.count("fleet.shards_retired")

    def request_swap(
        self,
        digest: str,
        worker_factory: Optional[Callable[[int], object]] = None,
        *,
        retire_old: bool = True,
        drain_timeout: float = 30.0,
    ) -> "concurrent.futures.Future[Dict[str, object]]":
        """Thread-safe :meth:`swap_default_shard` (refresher entry point).

        Schedules the swap on the fleet's event loop and returns a
        ``concurrent.futures.Future`` resolving to the swap record.
        """
        if self._loop is None:
            raise ServeRequestError("fleet front is not started")
        return asyncio.run_coroutine_threadsafe(
            self.swap_default_shard(
                digest,
                worker_factory,
                retire_old=retire_old,
                drain_timeout=drain_timeout,
            ),
            self._loop,
        )

    # -- supervision ----------------------------------------------------
    async def _supervise(self) -> None:
        while True:
            await asyncio.sleep(self._config.heartbeat_interval)
            probes = [
                self._probe(slot)
                for slot in self._slots
                if slot.state == "up"
            ]
            if probes:
                # _probe handles its own failures; an exception landing
                # here is a supervisor bug, and silently eating it would
                # leave workers unsupervised with no trace.
                outcomes = await asyncio.gather(
                    *probes, return_exceptions=True
                )
                for outcome in outcomes:
                    if isinstance(outcome, Exception):
                        obs.count("fleet.supervisor_errors")

    async def _probe(self, slot: _WorkerSlot) -> None:
        try:
            status, payload = await asyncio.wait_for(
                self._exchange(slot, "GET", "/healthz"),
                self._config.heartbeat_timeout,
            )
            healthy = status == 200 and payload.get("digest") == slot.digest
            if healthy:
                slot.last_health = {"restore": payload.get("restore")}
        except (
            OSError,
            asyncio.TimeoutError,
            ServeWorkerError,
            ValueError,
        ) as error:
            healthy = False
            slot.last_error = f"{type(error).__name__}: {error}"
            obs.count(f"fleet.probe_errors.{type(error).__name__}")
        if healthy:
            slot.missed = 0
            return
        slot.missed += 1
        obs.count("fleet.probe_misses")
        if slot.missed >= self._config.max_missed and slot.state == "up":
            self._declare_down(slot)

    def _declare_down(self, slot: _WorkerSlot) -> None:
        slot.state = "down"
        slot.pool.close()
        obs.count("fleet.workers_down")
        now = self._clock.now()
        window_start = now - self._config.breaker_window
        while slot.respawn_times and slot.respawn_times[0] < window_start:
            slot.respawn_times.popleft()
        if len(slot.respawn_times) >= self._config.breaker_threshold:
            # Circuit breaker: this worker keeps dying faster than the
            # window allows — stop feeding it respawns.
            slot.state = "ejected"
            obs.count("fleet.workers_ejected")
            return
        slot.state = "respawning"
        slot.respawn = asyncio.get_running_loop().create_task(
            self._respawn(slot)
        )

    async def _respawn(self, slot: _WorkerSlot) -> None:
        delay = min(
            self._config.respawn_backoff_cap,
            self._config.respawn_backoff * (2.0 ** slot.backoff_attempt),
        )
        delay *= 0.5 + 0.5 * self._rng.random()  # seeded de-sync jitter
        slot.backoff_attempt += 1
        await asyncio.sleep(delay)
        loop = asyncio.get_running_loop()
        old, slot.worker = slot.worker, slot.factory(slot.replica)
        # Reap whatever is left of the old worker before starting anew.
        restart = loop.run_in_executor(
            None, _in_order, old.kill, slot.worker.start
        )
        try:
            await asyncio.shield(restart)
        except asyncio.CancelledError:
            # The slot is being stopped.  An executor thread cannot be
            # cancelled, so let it finish, then stop what it started.
            await asyncio.wait([restart])
            await loop.run_in_executor(None, slot.worker.stop)
            raise
        except Exception:  # rapflow: noqa[RAP003] any spawn failure re-enters the down path for another backoff round
            obs.count("fleet.spawn_failures")
            slot.missed = 0
            if not self._draining:
                self._declare_down(slot)
            return
        slot.pool = _WorkerConnections(slot.idle_cap)
        slot.state = "up"
        slot.missed = 0
        slot.backoff_attempt = 0
        slot.respawns += 1
        slot.respawn_times.append(self._clock.now())
        obs.count("fleet.respawns")

    # -- front HTTP -----------------------------------------------------
    async def _query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        # Root span: a seeded-deterministic trace id (fleet seed +
        # request counter), current in this task, so every forward
        # attempt below parents to it.
        trace = None
        if self._tracer is not None:
            trace = (
                obs_trace.make_trace_id(self._config.seed, self._trace_index),
                None,
            )
            self._trace_index += 1
        t_start = self._clock.now()
        with obs_trace.request_span(
            self._tracer, trace, "front.request"
        ) as span:
            status, payload = await self._dispatch_query(headers, body)
            if span is not None:
                span.attrs["status"] = status
                if payload.get("degraded"):
                    span.attrs["degraded"] = True
                # Clients (and the chaos harness) can map every reply to
                # its merged trace tree.
                payload["trace_id"] = span.trace_id
        duration = self._clock.now() - t_start
        self._metrics.observe(duration)
        # Availability counts servable outcomes: shedding (429) is
        # policy, not failure — only 5xx burns the error budget.
        self._slo.record(ok=status < 500, duration=duration)
        return status, payload

    async def _dispatch_query(
        self, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if self._draining:
            self.rejected += 1
            return 503, {"error": "fleet is draining", "retryable": True}
        digest = headers.get(DIGEST_HEADER, self._digest)
        if digest not in self._shards:
            obs.count("fleet.unknown_shard")
            return 404, {
                "error": f"this front serves no shard {digest[:16]}"
            }
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": f"request body is not valid JSON: {error}"}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        kind = str(request.get("kind", ""))
        shed = self._admit(kind)
        if shed is not None:
            return shed
        self._inflight += 1
        try:
            return await self._answer(kind, request, body, digest)
        finally:
            self._inflight -= 1

    def _admit(
        self, kind: str
    ) -> Optional[Tuple[int, Dict[str, object]]]:
        """Tiered admission: expensive kinds are shed first under load."""
        tier = SHED_TIERS.get(kind, min(SHED_TIERS.values()))
        budget = max(1, int(self._config.max_inflight * tier))
        if self._inflight < budget:
            return None
        self.shed[kind] = self.shed.get(kind, 0) + 1
        self.rejected += 1
        obs.count(f"fleet.shed.{kind or 'unknown'}")
        obs.gauge("fleet.inflight", self._inflight)
        return 429, {
            "error": (
                f"fleet over the {kind or 'unknown'!s} admission budget "
                f"({budget} of {self._config.max_inflight} slots)"
            ),
            "retryable": True,
        }

    # -- request resilience ---------------------------------------------
    async def _answer(
        self,
        kind: str,
        request: Dict[str, object],
        body: bytes,
        digest: str,
    ) -> Tuple[int, Dict[str, object]]:
        attempts = self._config.retry.retries + 1
        deadline_at = self._clock.now() + self._config.timeout
        cache_key = digest + "|" + json.dumps(request, sort_keys=True)
        tried: List[int] = []
        for attempt in range(attempts):
            slot = self._pick_worker(tried, digest)
            if slot is None:
                break
            tried.append(slot.index)
            budget = deadline_at - self._clock.now()
            if budget <= 0:
                break
            responder = slot
            try:
                if self._config.retry.hedge:
                    status, payload, responder = await self._forward_hedged(
                        slot, tried, body, budget, attempt
                    )
                else:
                    status, payload = await self._forward(
                        slot, body, budget, attempt=attempt
                    )
            except (OSError, asyncio.TimeoutError, ServeWorkerError) as error:
                obs.count("fleet.forward_errors")
                obs.count(f"fleet.forward_errors.{type(error).__name__}")
                status, payload = 502, {
                    "error": "worker unreachable",
                    "retryable": True,
                }
            if status == 200:
                if payload.get("digest") != digest:
                    # Corrupt reply: wrong shard or garbled bytes —
                    # never surface it; treat as a retryable failure.
                    self.corrupt_detected += 1
                    obs.count("fleet.replies.corrupt_detected")
                else:
                    self.served += 1
                    self.shard_served[digest] = (
                        self.shard_served.get(digest, 0) + 1
                    )
                    payload["served_by"] = responder.worker_id
                    self._remember(cache_key, payload)
                    return 200, payload
            elif status not in (429, 502, 503, 504):
                # Deterministic worker answer (400, 500 with the engine's
                # error text): retrying cannot change it — pass through.
                return status, payload
            if attempt + 1 < attempts:
                self.retries += 1
                obs.count("fleet.retries")
                await asyncio.sleep(self._retry_delay(attempt))
        return self._degrade(kind, cache_key)

    def _pick_worker(
        self, tried: Sequence[int], digest: str
    ) -> Optional[_WorkerSlot]:
        """Round-robin over the shard's live workers, skipping tried ones."""
        alive = [
            slot
            for slot in self._slots
            if slot.state == "up" and slot.digest == digest
        ]
        if not alive:
            return None
        fresh = [slot for slot in alive if slot.index not in tried]
        pool = fresh or alive
        choice = pool[self._next_slot % len(pool)]
        self._next_slot += 1
        return choice

    def _retry_delay(self, attempt: int) -> float:
        policy = self._config.retry
        delay = min(policy.backoff_cap, policy.backoff * (2.0 ** attempt))
        if policy.jitter:
            delay *= (1.0 - policy.jitter) + policy.jitter * self._rng.random()
        return delay

    def _hedge_delay(self) -> float:
        """p95 of recent fleet latency, or the configured floor."""
        samples: List[float] = []
        for slot in self._slots:
            samples.extend(slot.latencies)
        if len(samples) < 8:
            return self._config.retry.hedge_delay
        samples.sort()
        return samples[min(len(samples) - 1, int(0.95 * len(samples)))]

    async def _forward(
        self,
        slot: _WorkerSlot,
        body: bytes,
        budget: float,
        attempt: int = 0,
        hedged: bool = False,
    ) -> Tuple[int, Dict[str, object]]:
        headers = {DEADLINE_HEADER: f"{budget:g}"}
        # Per-attempt span: the worker parents its own span to this
        # one via the propagated header, so a retried request shows
        # one front.attempt per replica it touched (failed, hedged,
        # and cancelled attempts included).  The span opens before
        # address resolution: a killed in-process worker fails right
        # there, and that attempt must still leave its hop in the tree.
        with obs.span("front.attempt") as span:
            # Filled by the exchange with how the hop travelled: over a
            # ``new`` or ``reused`` connection, and ``resent`` when a
            # reused one had gone stale.
            hop: Optional[Dict[str, object]] = None
            trace = obs_trace.current()
            if trace is not None:
                headers[obs_trace.TRACE_HEADER] = (
                    obs_trace.format_trace_header(
                        trace.trace_id, trace.span_id
                    )
                )
                hop = {}
            slot.inflight += 1
            t_start = self._clock.now()
            outcome: object = "error"
            try:
                status, payload = await asyncio.wait_for(
                    self._exchange(slot, "POST", "/query", body, headers, hop),
                    budget,
                )
                outcome = status
            except asyncio.CancelledError:
                outcome = "cancelled"  # hedge loser — the race was won elsewhere
                raise
            except asyncio.TimeoutError:
                outcome = "timeout"
                raise
            except (OSError, ServeWorkerError) as error:
                outcome = type(error).__name__
                raise
            finally:
                slot.inflight -= 1
                if span is not None:
                    span.attrs.update(
                        worker=slot.worker_id,
                        shard=slot.digest[:12],
                        attempt=attempt,
                        hedge=hedged,
                        status=outcome,
                        budget=round(budget, 6),
                        **(hop or {}),
                    )
        slot.latencies.append(self._clock.now() - t_start)
        return status, payload

    async def _forward_hedged(
        self,
        slot: _WorkerSlot,
        tried: List[int],
        body: bytes,
        budget: float,
        attempt: int = 0,
    ) -> Tuple[int, Dict[str, object], "_WorkerSlot"]:
        """Race a second replica after the hedge delay; first reply wins.

        Returns the winning reply *and the slot that produced it*, so the
        caller attributes ``served_by`` to the replica that actually
        answered, not the primary pick.
        """
        loop = asyncio.get_running_loop()
        primary = loop.create_task(
            self._forward(slot, body, budget, attempt=attempt)
        )
        owners = {primary: slot}
        done, _ = await asyncio.wait({primary}, timeout=self._hedge_delay())
        if primary in done:
            status, payload = primary.result()
            return status, payload, slot
        backup_slot = self._pick_worker(tried, slot.digest)
        if backup_slot is None:
            status, payload = await primary
            return status, payload, slot
        tried.append(backup_slot.index)
        self.hedges += 1
        obs.count("fleet.hedges")
        backup = loop.create_task(
            self._forward(backup_slot, body, budget, attempt=attempt, hedged=True)
        )
        owners[backup] = backup_slot
        pending = {primary, backup}
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    if task.exception() is None:
                        status, payload = task.result()
                        return status, payload, owners[task]
            # Both raised: re-raise one for the caller's handler.
            status, payload = await primary
            return status, payload, slot
        finally:
            for task in pending:  # rapflow: noqa[RAP010] cancellation order is immaterial
                task.cancel()

    def _remember(self, key: str, payload: Dict[str, object]) -> None:
        if self._config.degraded_cache_size <= 0 or payload.get("degraded"):
            return
        cached = {
            name: value
            for name, value in payload.items()
            if name != "served_by"
        }
        self._degraded_cache[key] = cached
        self._degraded_cache.move_to_end(key)
        while len(self._degraded_cache) > self._config.degraded_cache_size:
            self._degraded_cache.popitem(last=False)

    def _degrade(
        self, kind: str, cache_key: str
    ) -> Tuple[int, Dict[str, object]]:
        """Last resort: replay a cached reply marked degraded, or 503."""
        cached = self._degraded_cache.get(cache_key)
        if cached is not None:
            self.degraded += 1
            obs.count("fleet.degraded")
            self._trace_degrade(kind, "cache-replay", degraded=True)
            stale = dict(cached)
            stale["degraded"] = True
            return 200, stale
        self.rejected += 1
        obs.count("fleet.unavailable")
        self._trace_degrade(kind, "unavailable", degraded=False)
        return 503, {
            "error": f"no worker available for {kind or 'unknown'!s} "
            "and nothing cached",
            "retryable": True,
        }

    def _trace_degrade(
        self, kind: str, outcome: str, degraded: bool
    ) -> None:
        """Record the fallback hop so a degraded trace tree shows *why*."""
        attrs: Dict[str, object] = {"kind": kind or "unknown", "outcome": outcome}
        if degraded:
            attrs["degraded"] = True
        with obs.span("front.degrade", **attrs):
            pass

    # -- health ---------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        """The fleet health document (also ``GET /healthz``)."""
        tiers = {}
        for kind, tier in SHED_TIERS.items():
            budget = max(1, int(self._config.max_inflight * tier))
            tiers[kind] = {"budget": budget, "shed": self.shed.get(kind, 0)}
            obs.gauge(f"fleet.tier.{kind}.shed", self.shed.get(kind, 0))
        for slot in self._slots:
            obs.gauge(f"fleet.worker.{slot.worker_id}.state", slot.state)
            obs.gauge(
                f"fleet.worker.{slot.worker_id}.inflight", slot.inflight
            )
        shards: Dict[str, object] = {}
        for shard in self.shard_digests:
            shards[shard] = {
                "default": shard == self._digest,
                "served": self.shard_served.get(shard, 0),
                "workers": [
                    slot.to_dict()
                    for slot in self._slots
                    if slot.digest == shard
                ],
            }
        return {
            "status": "draining" if self._draining else "ok",
            "digest": self._digest,
            "workers": [slot.to_dict() for slot in self._slots],
            "shards": shards,
            "admission": {
                "inflight": self._inflight,
                "max_inflight": self._config.max_inflight,
                "tiers": tiers,
            },
            "requests": self._request_counts(),
            "respawns": sum(slot.respawns for slot in self._slots),
            "swap": {"count": self._swaps, "last": self._last_swap},
            "slo": self._slo.snapshot(),
            "trace": self._trace_health(),
            "sanitizer": sanitizer_health(),
        }

    def _request_counts(self) -> Dict[str, int]:
        """The request outcomes both ``/healthz`` and ``/metrics`` report."""
        return {
            "served": self.served,
            "retries": self.retries,
            "hedges": self.hedges,
            "degraded": self.degraded,
            "corrupt_detected": self.corrupt_detected,
            "rejected": self.rejected,
        }

    # -- metrics --------------------------------------------------------
    async def metrics_doc(self) -> Dict[str, object]:
        """The front's ``GET /metrics`` payload with fleet aggregation.

        The front's own ``/query`` histogram rides next to a bucket-wise
        sum of every live worker's histogram (identical fixed bounds, so
        merging is addition) plus the fleet-wide counters chaos triage
        asks for first: retries, hedges, shed, degraded, respawns, how
        many workers shm-attached their artifact, and the connections the
        front opened to workers (``worker_connects``) and requests it
        resent on a fresh one (``worker_resends``).  Unreachable workers
        are reported as ``null`` rather than failing the endpoint.
        """
        live = [slot for slot in self._slots if slot.state == "up"]
        probes = [self._worker_metrics(slot) for slot in live]
        results = await asyncio.gather(*probes, return_exceptions=True)
        workers: Dict[str, object] = {}
        merged = LatencyHistogram()
        workers_reporting = 0
        shm_attached = 0
        for slot, result in zip(live, results):
            if isinstance(result, BaseException) or result is None:
                workers[slot.worker_id] = None
                continue
            workers[slot.worker_id] = result
            workers_reporting += 1
            latency = result.get("latency")
            if isinstance(latency, dict):
                try:
                    merged.merge(LatencyHistogram.from_dict(latency))
                except ObsError:
                    obs.count("fleet.metrics.foreign_buckets")
            counters = result.get("counters")
            if isinstance(counters, dict):
                shm_attached += int(counters.get("shm_attached", 0) or 0)
        return {
            "schema": "rapflow-metrics/1",
            "role": "front",
            "digest": self._digest,
            "latency": self._metrics.to_dict(),
            "workers_latency": merged.to_dict(),
            "workers_reporting": workers_reporting,
            "counters": {
                **self._request_counts(),
                "shed": dict(self.shed),
                "respawns": sum(slot.respawns for slot in self._slots),
                "shm_attached": shm_attached,
                "worker_connects": self.worker_connects,
                "worker_resends": self.worker_resends,
            },
            "slo": self._slo.snapshot(),
            "workers": workers,
        }

    async def _worker_metrics(
        self, slot: _WorkerSlot
    ) -> Optional[Dict[str, object]]:
        """One worker's ``/metrics`` doc, or ``None`` when unreachable."""
        try:
            status, payload = await asyncio.wait_for(
                self._exchange(slot, "GET", "/metrics"),
                self._config.heartbeat_timeout,
            )
        except (
            OSError,
            asyncio.TimeoutError,
            ServeWorkerError,
            ValueError,
        ) as error:
            obs.count(f"fleet.metrics_probe_errors.{type(error).__name__}")
            return None
        return payload if status == 200 else None

    # -- front -> worker exchange ---------------------------------------
    async def _exchange(
        self,
        slot: _WorkerSlot,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Optional[Dict[str, str]] = None,
        hop: Optional[Dict[str, object]] = None,
    ) -> Tuple[int, Dict[str, object]]:
        """One request/reply with ``slot``'s worker; returns (status, JSON).

        Forwards, heartbeat probes and the ``/metrics`` fan-out all go
        through here.  The request rides an idle keep-alive connection
        from the slot's pool when one is there, and a new connection
        otherwise.  A reused connection that fails before the first
        reply byte was most likely closed by the worker while it sat
        idle; the request is then resent once on a new connection, which
        is safe because every request kind is a pure read.  ``hop``, when
        given, records ``conn: new|reused`` and ``resent: True``.
        """
        pool = slot.pool
        host, port = slot.worker.address
        request = _request_bytes(method, path, f"{host}:{port}", body, headers)
        conn = pool.take()
        if hop is not None:
            hop["conn"] = "new" if conn is None else "reused"
        if conn is not None:
            try:
                return await _round_trip(conn, request, pool)
            except _StaleConnection:
                self.worker_resends += 1
                obs.count("fleet.worker_resends")
                if hop is not None:
                    hop["resent"] = True
        conn = await asyncio.open_connection(host, port)
        self.worker_connects += 1
        obs.count("fleet.worker_connects")
        return await _round_trip(conn, request, pool)


# ----------------------------------------------------------------------
# front -> worker HTTP framing
# ----------------------------------------------------------------------
class _StaleConnection(ServeWorkerError):
    """The worker closed the connection before any byte of its reply."""


def _request_bytes(
    method: str,
    path: str,
    authority: str,
    body: bytes,
    headers: Optional[Dict[str, str]],
) -> bytes:
    """One keep-alive HTTP/1.1 request, head and body in a single write."""
    lines = [f"{method} {path} HTTP/1.1", f"Host: {authority}"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    if body:
        lines.append("Content-Type: application/json")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _round_trip(
    conn: _Connection, request: bytes, pool: _WorkerConnections
) -> Tuple[int, Dict[str, object]]:
    """Send ``request`` over ``conn`` and read the whole JSON reply.

    The reply head comes in with one ``readuntil``, the way
    :func:`~repro.serve.server.read_http_request` reads a request head.
    ``conn`` goes back to ``pool`` only after a complete reply that does
    not say ``Connection: close``.  Anything else closes it: a timeout,
    a cancelled hedge loser, a framing error or a partial reply could
    leave a late reply on the socket, to be read as the next request's.
    """
    reader, writer = conn
    complete = False
    try:
        try:
            writer.write(request)
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if error.partial:
                raise ServeWorkerError(
                    f"truncated reply head {error.partial[:64]!r}"
                ) from None
            raise _StaleConnection(
                "worker closed the connection before replying"
            ) from None
        except ConnectionError as error:
            raise _StaleConnection(
                f"connection failed before the reply: {error}"
            ) from None
        except asyncio.LimitOverrunError:
            raise ServeWorkerError("reply head over the stream limit") from None
        status_line, fields = split_head(head)
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServeWorkerError(f"malformed status line {status_line!r}")
        try:
            length = int(fields.get("content-length") or "0")
            raw = await reader.readexactly(length) if length else b""
            payload = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, asyncio.IncompleteReadError) as error:
            raise ServeWorkerError(f"unreadable reply body: {error}") from None
        if not isinstance(payload, dict):
            raise ServeWorkerError(f"non-object reply payload {payload!r}")
        complete = True
    finally:
        if not complete:
            writer.close()
    if fields.get("connection", "").lower() == "close":
        writer.close()
    else:
        pool.give(conn)
    return int(parts[1]), payload


# ----------------------------------------------------------------------
# convenience constructors
# ----------------------------------------------------------------------
def local_worker_factory(
    engine_factory: Callable[[], object],
    **server_kwargs: object,
) -> Callable[[int], LocalWorker]:
    """A :class:`PlacementFleet` factory producing in-process workers."""

    def factory(index: int) -> LocalWorker:
        return LocalWorker(f"w{index}", engine_factory, **server_kwargs)

    return factory


def process_worker_factory(
    serve_args: Sequence[str],
    ready_dir: Union[str, Path],
    start_timeout: float = 60.0,
    clock: Optional[Clock] = None,
) -> Callable[[int], ProcessWorker]:
    """A factory producing ``python -m repro serve`` subprocess workers."""

    frozen = list(serve_args)

    def factory(index: int) -> ProcessWorker:
        return ProcessWorker(
            f"w{index}",
            frozen,
            ready_dir,
            start_timeout=start_timeout,
            clock=clock,
        )

    return factory


__all__ = [
    "DIGEST_HEADER",
    "FleetConfig",
    "LocalWorker",
    "PlacementFleet",
    "ProcessWorker",
    "RetryPolicy",
    "SHED_TIERS",
    "local_worker_factory",
    "process_worker_factory",
]
