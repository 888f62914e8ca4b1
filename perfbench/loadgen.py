"""Single-process asyncio open-loop load generator over keep-alive HTTP/1.1.

Requests are *due* on a fixed schedule (``rate`` per second) no matter how
fast the server answers: a scheduler task enqueues each request at its due
time and at most one worker per connection sends it when the connection is
free.  Every latency is measured from the request's due time, so a stall
also charges the wait it imposes on the requests queued behind it.

Besides latencies the generator reports how late the scheduler itself ran
(``late_s``), the client queue depth at every enqueue, and whether the
server kept up (:func:`backlogged`).  A request that times out, is reset or
answers anything but 200 counts as failed and as a miss against any latency
limit (its latency is ``inf``).
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import params

#: a request: (method, path, JSON payload or None)
Request = tuple[str, str, object]

#: a run builds a backlog when it answers fewer than this share of the offer
MIN_ACHIEVED_RATIO = 0.9
#: ... or when its client queue ends this many requests deeper than it began
QUEUE_SLACK = 2


class Connection:
    """One keep-alive HTTP/1.1 client connection speaking JSON bodies."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, payload: object = None) -> tuple[int, object]:
        """Send one request; returns ``(status, decoded body)``.

        Opens the connection on first use (and after :meth:`close`).  A JSON
        body is decoded; any other body is returned as text.
        """
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        self._writer.write(head + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        data = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        text = data.decode("utf-8")
        return status, json.loads(text) if text.startswith("{") else text

    async def close(self) -> None:
        """Close the socket (the next request reconnects)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@dataclass
class Sample:
    """One request of an open-loop run."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    payload: object = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.status == 200

    @property
    def latency_ms(self) -> float:
        """Due-time latency; ``inf`` for a failed request."""
        return (self.done - self.due) * 1e3 if self.ok else math.inf


@dataclass
class RunResult:
    """Everything one open-loop run at a fixed rate observed."""

    rate: float
    duration: float
    start: float
    samples: list[Sample] = field(default_factory=list)
    #: scheduler lateness per enqueued request (seconds)
    late_s: list[float] = field(default_factory=list)
    #: (seconds since start, client queue depth) at every enqueue
    depth: list[tuple[float, int]] = field(default_factory=list)
    #: requests due but never sent (the run was cut on a runaway queue)
    unsent: int = 0
    aborted: bool = False

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def latencies_ms(self) -> list[float]:
        return [s.latency_ms for s in self.samples]

    def achieved_rps(self, limit_ms: float = math.inf) -> float:
        """Responses per second that succeeded within ``limit_ms``.

        Counted over the span from the first due time to the last response,
        so a server that falls behind shows a rate below the offered one.
        """
        good = [s for s in self.samples if s.ok and s.latency_ms <= limit_ms]
        if not self.samples:
            return 0.0
        span = max(s.done for s in self.samples) - self.start
        return len(good) / span if span > 0 else 0.0


def queue_grows(depth: list[tuple[float, int]]) -> bool:
    """True when the client queue is deeper at the end than at the start.

    Compares the mean depth of the last quarter of enqueues with the first
    quarter; a server that keeps up holds the queue near zero throughout.
    """
    if len(depth) < 8:
        return bool(depth) and depth[-1][1] > 2 * QUEUE_SLACK
    quarter = len(depth) // 4
    first = sum(d for _, d in depth[:quarter]) / quarter
    last = sum(d for _, d in depth[-quarter:]) / quarter
    return last > first + QUEUE_SLACK


def backlogged(result: RunResult) -> bool:
    """Did the run build a backlog: cut short, slower than offered, or a growing queue?"""
    if result.aborted:
        return True
    offered = (result.attempted + result.unsent) / result.duration
    if result.achieved_rps() < MIN_ACHIEVED_RATIO * offered:
        return True
    return queue_grows(result.depth)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``inf`` propagates, never ``nan``)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    if fraction == 0 or ordered[low] == ordered[high]:
        return ordered[low]
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def select_ok_rate(runs: list[RunResult]) -> RunResult | None:
    """The highest-rate run whose ``params.LIMIT_PERCENTILE``-th percentile
    meets ``params.LIMIT_MS`` with no failures and no backlog (``None`` when
    no run qualifies)."""
    best = None
    for run in runs:
        if run.failed or backlogged(run):
            continue
        if percentile(run.latencies_ms(), params.LIMIT_PERCENTILE) > params.LIMIT_MS:
            continue
        if best is None or run.rate > best.rate:
            best = run
    return best


async def open_loop(
    connections: list[Connection],
    make_request: Callable[[int], Request],
    *,
    rate: float,
    duration: float,
    timeout: float = 2.0,
    max_queue: int | None = None,
) -> RunResult:
    """Offer ``rate`` requests/s for ``duration`` seconds over ``connections``.

    ``make_request(i)`` builds the ``i``-th request.  When ``max_queue`` is
    given and the client queue exceeds it the schedule stops early (the run
    is marked ``aborted``; requests still queued are counted as unsent).
    Returns once every sent request has completed or timed out.
    """
    count = max(1, int(round(rate * duration)))
    queue: asyncio.Queue = asyncio.Queue()
    result = RunResult(rate=float(rate), duration=float(duration), start=perf_counter() + 0.005)

    async def schedule() -> None:
        for index in range(count):
            due = result.start + index / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            now = perf_counter()
            result.late_s.append(max(0.0, now - due))
            queue.put_nowait((index, due))
            result.depth.append((now - result.start, queue.qsize()))
            if max_queue is not None and queue.qsize() > max_queue:
                result.aborted = True
                result.unsent = count - index - 1
                return

    async def work(connection: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due = item
            sent = perf_counter()
            status, payload, error = 0, None, None
            try:
                status, payload = await asyncio.wait_for(
                    connection.request(*make_request(index)), timeout
                )
                if status != 200:
                    error = f"http {status}"
            except (
                asyncio.TimeoutError, ConnectionError, asyncio.IncompleteReadError,
                OSError, ValueError, IndexError,
            ) as exc:
                error = "timeout" if isinstance(exc, asyncio.TimeoutError) else type(exc).__name__
                # Unknown stream position: the next request reconnects.
                await connection.close()
            result.samples.append(Sample(index, due, sent, perf_counter(), status, payload, error))

    workers = [asyncio.create_task(work(c)) for c in connections]
    try:
        await schedule()
        while not queue.empty():
            if result.aborted:
                queue.get_nowait()
                result.unsent += 1
            else:
                await asyncio.sleep(0.001)
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    finally:
        for task in workers:
            task.cancel()
        await asyncio.gather(*workers, return_exceptions=True)
    result.samples.sort(key=lambda s: s.index)
    return result
