"""Open-loop HTTP load generator: one process, one thread, asyncio.

Arrivals follow a seeded Poisson schedule at a fixed rate.  Each
arrival becomes a task at its due time; at most ``slots`` connections
are open at once, so a request that comes due while every slot is busy
waits inside the generator — and because latency is timed from the due
time, that wait counts against the server, exactly as an independent
user would experience it.

Two lateness figures are kept apart:

* ``loop_late`` — how late the generator itself started an arrival's
  task (its own scheduling error; the self-check);
* ``queue_wait`` — how long an arrival then waited for a free slot
  (the backlog; it grows when the server cannot keep up).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass

#: Seconds after its due time by which a request must be answered.
REQUEST_TIMEOUT = 5.0


@dataclass
class Request:
    """One request to send: route, body and what kind of traffic it is."""

    kind: str
    path: str
    body: dict
    payload: bytes = b""

    def __post_init__(self):
        self.payload = json.dumps(self.body).encode()


@dataclass
class Outcome:
    """What became of one request."""

    request: Request
    due: float
    started: float = math.nan
    sent: float = math.nan
    done: float = math.nan
    status: int | None = None
    body: bytes | None = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def loop_late(self) -> float:
        return self.started - self.due

    @property
    def queue_wait(self) -> float:
        return self.sent - self.started


async def _exchange(host: str, port: int, request: Request) -> tuple[int, bytes]:
    """Send one request on a fresh connection; return status and body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        head = (
            f"POST {request.path} HTTP/1.1\r\n"
            f"Host: {host}:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(request.payload)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + request.payload)
        await writer.drain()
        data = await reader.read()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    header, _, body = data.partition(b"\r\n\r\n")
    status_line = header.split(b"\r\n", 1)[0].split()
    if len(status_line) < 2:
        raise ConnectionError("malformed response")
    return int(status_line[1]), body


async def _one(host, port, outcome: Outcome, slots: asyncio.Semaphore):
    loop = asyncio.get_running_loop()
    outcome.started = loop.time()
    try:
        async with asyncio.timeout_at(outcome.due + REQUEST_TIMEOUT):
            async with slots:
                outcome.sent = loop.time()
                outcome.status, outcome.body = await _exchange(
                    host, port, outcome.request
                )
    except TimeoutError:
        outcome.error = "timeout"
    except (ConnectionError, OSError, ValueError) as exc:
        outcome.error = f"{type(exc).__name__}: {exc}"
    finally:
        outcome.done = loop.time()
        if math.isnan(outcome.sent):
            outcome.sent = outcome.done


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Seeded arrival offsets (seconds from the rung start)."""
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


async def run_open_loop(
    host: str,
    port: int,
    requests: list[Request],
    offsets: list[float],
    slots: int,
) -> list[Outcome]:
    """Send ``requests[i]`` at ``offsets[i]``; wait for every answer."""
    loop = asyncio.get_running_loop()
    limiter = asyncio.Semaphore(slots)
    start = loop.time() + 0.05
    tasks, outcomes = [], []
    for request, offset in zip(requests, offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(request=request, due=due)
        outcomes.append(outcome)
        tasks.append(asyncio.create_task(_one(host, port, outcome, limiter)))
    await asyncio.gather(*tasks)
    return outcomes


async def run_closed_loop(
    host: str,
    port: int,
    next_request,
    count: int,
    clients: int,
) -> list[Outcome]:
    """``clients`` back-to-back senders until ``count`` requests are sent.

    The capacity probe: a fixed count, not a fixed time, so a run on a
    busy machine sends the same requests (and fills the server's caches
    as far) as one on a quiet machine.
    """
    loop = asyncio.get_running_loop()
    outcomes: list[Outcome] = []

    async def client():
        while len(outcomes) < count:
            outcome = Outcome(request=next_request(), due=loop.time())
            outcomes.append(outcome)
            await _one(host, port, outcome, asyncio.Semaphore(1))

    await asyncio.gather(*(client() for _ in range(clients)))
    return outcomes
