"""Load generator: keep-alive HTTP/1.1 connections on one asyncio loop.

One process drives at most ``nproc`` connections.  The closed loop sends
each connection's next request when its previous reply arrives; the open
loop sends on a fixed schedule and times every request from the moment
it was due, so a stall also charges the requests queued behind it.
Replies are kept whole for the output check after the run.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple


@dataclass
class Exchange:
    """One request as sent and answered (``status`` 0: no reply)."""

    body: bytes
    due: float
    queued: float
    sent: float
    received: float
    status: int
    payload: bytes
    phase: str


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, body: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        assert self._reader is not None
        self._writer.write(
            b"POST /query HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode()
            + b"\r\nConnection: keep-alive\r\n\r\n"
            + body
        )
        await self._writer.drain()
        head = await self._reader.readuntil(b"\r\n\r\n")
        status = int(head[9:12])
        marker = head.lower().index(b"content-length:") + 15
        length = int(head[marker:head.index(b"\r", marker)])
        return status, await self._reader.readexactly(length)

    async def close(self) -> None:
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _send(
    connection: _Connection,
    body: bytes,
    due: float,
    queued: float,
    phase: str,
    out: List[Exchange],
) -> None:
    sent = time.monotonic()
    try:
        status, payload = await connection.exchange(body)
    except (OSError, asyncio.IncompleteReadError, asyncio.LimitOverrunError, ValueError):
        await connection.close()
        status, payload = 0, b""
    out.append(
        Exchange(body, due, queued, sent, time.monotonic(), status, payload, phase)
    )


async def closed_loop(
    host: str,
    port: int,
    stream: Iterator[bytes],
    connections: int,
    seconds: float,
    out: List[Exchange],
    phase: str = "closed",
) -> float:
    """Drive ``connections`` back-to-back clients; returns elapsed seconds."""
    start = time.monotonic()
    deadline = start + seconds

    async def client() -> None:
        connection = _Connection(host, port)
        try:
            while time.monotonic() < deadline:
                now = time.monotonic()
                await _send(connection, next(stream), now, now, phase, out)
        finally:
            await connection.close()

    await asyncio.gather(*(client() for _ in range(connections)))
    return time.monotonic() - start


async def open_loop(
    host: str,
    port: int,
    stream: Iterator[bytes],
    connections: int,
    rate: float,
    seconds: float,
    out: List[Exchange],
    phase: str = "open",
    done: Optional[Callable[[], bool]] = None,
) -> None:
    """Send at ``rate`` per second for ``seconds`` (or until ``done()``).

    Requests due while every connection is busy wait in a queue, and
    their wait counts in their latency.
    """
    queue: "asyncio.Queue[Optional[Tuple[bytes, float, float]]]" = asyncio.Queue()
    start = time.monotonic() + 0.01

    async def schedule() -> None:
        index = 0
        while True:
            due = start + index / rate
            if due >= start + seconds or (done is not None and done()):
                break
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((next(stream), due, time.monotonic()))
            index += 1
        for _ in range(connections):
            queue.put_nowait(None)

    async def client() -> None:
        connection = _Connection(host, port)
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                body, due, queued = item
                await _send(connection, body, due, queued, phase, out)
        finally:
            await connection.close()

    await asyncio.gather(schedule(), *(client() for _ in range(connections)))
