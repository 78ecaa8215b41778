"""Synchronous harness around the asyncio server (tests, examples, CLI).

:class:`ServerThread` runs a :class:`~repro.serve.server.PlacementServer`
on a dedicated event loop in a background thread, so synchronous callers
(pytest tests, the examples, interactive sessions) can drive it with
:class:`~repro.serve.client.ServeClient` instances without touching
asyncio themselves.  Entering the context binds the port; exiting
performs the full graceful drain.

The split keeps the serving stack itself single-threaded: the only
cross-thread traffic is the HTTP socket and the
``call_soon_threadsafe``-scheduled shutdown.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from ..errors import ServeError
from .client import ServeClient
from .engine import QueryEngine
from .server import PlacementServer

#: How long :meth:`ServerThread.stop` waits for the loop thread.
_JOIN_TIMEOUT = 30.0


class ServerThread:
    """Run a placement server on a background event loop.

    Accepts either a ready-made :class:`PlacementServer` or a
    :class:`QueryEngine` (plus server keyword arguments) to wrap in one.
    """

    def __init__(self, engine_or_server: object, **server_kwargs: object) -> None:
        if isinstance(engine_or_server, PlacementServer):
            if server_kwargs:
                raise ServeError(
                    "pass server kwargs only together with a QueryEngine"
                )
            self._placement_server = engine_or_server
        elif isinstance(engine_or_server, QueryEngine):
            self._placement_server = PlacementServer(
                engine_or_server, **server_kwargs  # type: ignore[arg-type]
            )
        else:
            raise ServeError(
                f"ServerThread wraps a QueryEngine or PlacementServer, got "
                f"{type(engine_or_server).__name__}"
            )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._killed = False

    @property
    def server(self) -> PlacementServer:
        """The wrapped server (port is valid once the context is entered)."""
        return self._placement_server

    @property
    def port(self) -> int:
        """The bound port."""
        return self._placement_server.port

    def client(self, timeout: float = 30.0) -> ServeClient:
        """A fresh client pointed at this server."""
        return ServeClient(
            self._placement_server.host, self.port, timeout=timeout
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._placement_server.start())
        except BaseException as error:  # rapflow: noqa[RAP003] re-raised in the starting thread by __enter__
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            if self._killed:
                # A crash-simulated stop cuts connections mid-task; the
                # resulting CancelledErrors are expected, not reportable.
                loop.set_exception_handler(lambda _loop, _context: None)
            else:
                loop.run_until_complete(self._placement_server.shutdown())
            # Let connection handlers and transport close callbacks
            # finish before the loop closes, so no callback lands on a
            # closed loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)  # rapflow: noqa[RAP009] drain of cancelled tasks; results are the CancelledErrors we caused
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="rapflow-serve", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServeError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the loop; the thread drains the server before exiting."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT)

    def kill(self) -> None:
        """Abrupt stop — the in-process analogue of ``SIGKILL``.

        No drain: the listening socket closes, open connections are
        cut mid-flight, and the loop exits.  The chaos harness and
        fleet tests use this to crash a worker the way a killed process
        crashes; production shutdown is :meth:`stop`.
        """
        self._killed = True
        if self._loop is not None and self._loop.is_running():
            def _abort() -> None:
                self._placement_server.abort()
                self._loop.stop()

            self._loop.call_soon_threadsafe(_abort)
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT)

    def inject_stall(self, seconds: float) -> None:
        """Block the server's event loop for ``seconds`` (chaos hook).

        Schedules a *blocking* wait on the loop thread, so every request
        and health probe stalls — indistinguishable from a worker wedged
        in a long GIL-bound computation, which is exactly the failure
        mode the fleet supervisor's stall detection must catch.
        """
        if self._loop is None or not self._loop.is_running():
            raise ServeError("cannot stall a server that is not running")
        blocker = threading.Event()  # never set: wait() is a pure timer
        self._loop.call_soon_threadsafe(blocker.wait, seconds)


class FleetThread:
    """Run a :class:`~repro.serve.fleet.PlacementFleet` on a background loop.

    The fleet analogue of :class:`ServerThread`: entering the context
    starts every worker and binds the front; exiting shuts the whole
    fleet down.  Synchronous callers (fleet tests, the chaos harness)
    drive the front with ordinary
    :class:`~repro.serve.client.ServeClient` instances.
    """

    def __init__(self, fleet: object) -> None:
        from .fleet import PlacementFleet

        if not isinstance(fleet, PlacementFleet):
            raise ServeError(
                f"FleetThread wraps a PlacementFleet, got "
                f"{type(fleet).__name__}"
            )
        self._fleet = fleet
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def fleet(self) -> object:
        """The wrapped fleet (port valid once the context is entered)."""
        return self._fleet

    @property
    def port(self) -> int:
        """The front's bound port."""
        return self._fleet.port

    def client(self, timeout: float = 30.0, **kwargs: object) -> ServeClient:
        """A fresh client pointed at the fleet front."""
        return ServeClient(
            self._fleet.host, self.port, timeout=timeout, **kwargs
        )

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._fleet.start())
        except BaseException as error:  # rapflow: noqa[RAP003] re-raised in the starting thread by __enter__
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self._fleet.shutdown())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)  # rapflow: noqa[RAP009] drain of cancelled tasks; results are the CancelledErrors we caused
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __enter__(self) -> "FleetThread":
        self._thread = threading.Thread(
            target=self._run, name="rapflow-fleet", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServeError(
                f"fleet failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.stop()

    def stop(self) -> None:
        """Stop the loop; the thread shuts the fleet down before exiting."""
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT)


__all__ = ["FleetThread", "ServerThread"]
