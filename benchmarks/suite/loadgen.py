"""Load generators: a Poisson open loop and closed-loop HTTP clients.

Open loop — independent users: requests fire on a seeded schedule
whether or not earlier ones have been answered, so a stall shows up as
queueing.  One dispatcher coroutine walks the schedule and spawns a
request only when it is due; nothing sleeps up front.  Latency runs from
the instant a request was *due*, not from when the generator got round
to sending it, and how late the generator ran is reported beside it: a
rate at which the generator itself falls behind is flagged, because its
numbers then describe the generator.

Closed loop — callers that wait: each HTTP client sends its next request
after the previous response arrived.

Everything runs on the caller's event loop: besides the server's one
engine thread there are no threads, and never more than ``nproc``
connections in flight.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from collections.abc import Awaitable, Callable, Sequence
from dataclasses import dataclass, field

from harness import Slice, percentile
from repro.serve.asyncserve import DeadlineExceededError, QueueFullError

#: How the server turns a request away under load.  Backpressure is its
#: designed answer to a rate it cannot carry, so a refusal is a measured
#: outcome of the rate ladder, not a wrong output.
REFUSALS = (QueueFullError, DeadlineExceededError)

#: A rate whose generator lateness p99 exceeds this is flagged.
SATURATED_LATE_MS = 5.0
#: Spawn at most this many overdue requests before letting them run.
_BURST = 64


def poisson_schedule(rate_per_s: float, duration_s: float, seed: int) -> list[float]:
    """Due times (seconds from start) of a seeded Poisson process."""
    rng = random.Random(seed)
    out: list[float] = []
    clock = rng.expovariate(rate_per_s)
    while clock < duration_s:
        out.append(clock)
        clock += rng.expovariate(rate_per_s)
    return out


@dataclass
class OpenLoopResult:
    rate: float
    #: Seconds from due time to answer.  A refused request was never answered
    #: while the phase ran and counts as the phase's whole length, which puts
    #: it past every limit; a request that raised anything else is ``inf``.
    latency_s: list[float]
    #: Seconds between a request's due time and the dispatcher firing it.
    late_s: list[float]
    answers: list[object]
    due: list[float]
    errors: list[str] = field(default_factory=list)
    #: Request numbers the server refused (``REFUSALS``).
    refused: list[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    span_s: float = 0.0

    @property
    def n_failed(self) -> int:
        return sum(1 for value in self.latency_s if math.isinf(value))

    @property
    def n_refused(self) -> int:
        return len(self.refused)

    @property
    def achieved_per_s(self) -> float:
        done = len(self.latency_s) - self.n_failed - self.n_refused
        return done / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def offered_per_s(self) -> float:
        return len(self.latency_s) / self.span_s if self.span_s else 0.0

    @property
    def late_p99_ms(self) -> float:
        return percentile(self.late_s, 0.99) * 1e3

    @property
    def generator_saturated(self) -> bool:
        return self.late_p99_ms > SATURATED_LATE_MS

    def p_ms(self, q: float) -> float:
        return percentile(self.latency_s, q) * 1e3


async def open_loop(
    send: Callable[[int], Awaitable[object]],
    offsets: Sequence[float],
    rate: float,
) -> OpenLoopResult:
    """Fire ``send(i)`` at ``offsets[i]``; wait for every answer."""
    n = len(offsets)
    result = OpenLoopResult(rate, [math.inf] * n, [0.0] * n, [None] * n, [0.0] * n)
    loop = asyncio.get_running_loop()

    async def one(i: int, due: float) -> None:
        try:
            result.answers[i] = await send(i)
        except REFUSALS:
            result.refused.append(i)
            return
        except Exception as exc:  # a failed request misses every limit
            if len(result.errors) < 5:
                result.errors.append(repr(exc))
            return
        result.latency_s[i] = time.perf_counter() - due

    tasks: list[asyncio.Task[None]] = []
    origin = time.perf_counter() + 0.005
    burst = 0
    i = 0
    while i < n:
        due = origin + offsets[i]
        now = time.perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            burst = 0
            continue
        result.late_s[i] = now - due
        result.due[i] = due
        tasks.append(loop.create_task(one(i, due)))
        i += 1
        burst += 1
        if burst >= _BURST:  # far behind schedule: let the spawned requests start
            await asyncio.sleep(0)
            burst = 0
    await asyncio.gather(*tasks)
    result.elapsed_s = time.perf_counter() - origin
    result.span_s = offsets[-1] if n else 0.0
    for i in result.refused:
        result.latency_s[i] = result.elapsed_s
    return result


# -- closed-loop HTTP ----------------------------------------------------------------


def query_request(row: Sequence[str]) -> bytes:
    body = json.dumps({"row": list(row)}).encode("utf-8")
    head = (
        "POST /query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


async def http_query(host: str, port: int, request: bytes) -> list[tuple[int, int]]:
    """One ``POST /query`` on its own connection, read to the last byte."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request)
        await writer.drain()
        raw = await reader.read(-1)
    finally:
        writer.close()
        await writer.wait_closed()
    head, __, body = raw.partition(b"\r\n\r\n")
    status = head.split(b" ", 2)[1]
    if status != b"200":
        raise RuntimeError(f"HTTP {status.decode('latin-1')}: {body[:200]!r}")
    return [(int(r), int(d)) for r, d in json.loads(body)["matches"]]


async def closed_loop(
    call: Callable[[int], Awaitable[object]],
    n_clients: int,
    budget: Slice,
) -> tuple[list[float], dict[int, object], list[str]]:
    """``n_clients`` callers, each one request in flight, until the slice
    is used up.  ``call(i)`` answers request ``i`` of the stream.

    Returns per-request wall seconds in completion order, the answers by
    request number and the errors seen.
    """
    walls: list[float] = []
    answers: dict[int, object] = {}
    errors: list[str] = []
    cursor = 0

    async def client() -> None:
        nonlocal cursor
        while budget.more():
            i = cursor
            cursor += 1  # no await between read and bump: no request is sent twice
            started = time.perf_counter()
            try:
                answers[i] = await call(i)
            except Exception as exc:  # counted by the caller as a failed request
                errors.append(f"request {i}: {exc!r}")
                continue
            walls.append(time.perf_counter() - started)

    await asyncio.gather(*[client() for __ in range(n_clients)])
    return walls, answers, errors
