"""Retry/backoff on the worker -> coordinator write path.

``forward_delta`` is what keeps a worker useful while the coordinator is
mid-respawn: bounded exponential backoff absorbs the outage, and when the
budget runs out the worker answers a structured *degraded* 503 (with a
``Retry-After`` hint) instead of hanging or dying — reads never stop.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.serving.replicated.pool import (
    FORWARD_ATTEMPTS,
    backoff_delays,
    forward_delta,
)
from repro.serving.server import write_http_response


class TestBackoffDelays:
    def test_deterministic_per_seed(self):
        assert backoff_delays(6, seed=3) == backoff_delays(6, seed=3)
        assert backoff_delays(6, seed=3) != backoff_delays(6, seed=4)

    def test_monotone_before_the_cap(self):
        # Jitter <= 1 never reaches the next doubling, so the pre-cap
        # schedule is strictly increasing: retries always spread out.
        for seed in range(8):
            delays = backoff_delays(5, base=0.05, cap=100.0, jitter=0.25, seed=seed)
            assert all(a < b for a, b in zip(delays, delays[1:]))

    def test_capped_with_jitter_headroom(self):
        delays = backoff_delays(10, base=0.05, cap=1.0, jitter=0.25, seed=0)
        assert max(delays) <= 1.0 * 1.25
        assert delays[0] >= 0.05

    def test_degenerate_counts(self):
        assert backoff_delays(0) == ()
        assert backoff_delays(-3) == ()


def free_port():
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def canned_response(payload, status=200):
    body = json.dumps(payload).encode()
    return (
        f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


class TestForwardDelta:
    def test_absent_coordinator_degrades_with_structure(self):
        port = free_port()  # nothing listens here

        async def run():
            start = time.monotonic()
            status, payload = await forward_delta(
                "127.0.0.1", port, b"{}",
                attempts=3, base_delay=0.01, max_delay=0.04, seed=0,
            )
            return status, payload, time.monotonic() - start

        status, payload, elapsed = asyncio.run(run())
        assert status == 503
        assert payload["degraded"] is True
        assert payload["attempts"] == 3
        assert payload["retry_after_seconds"] >= 1
        assert "unreachable" in payload["error"]
        # Two jittered sleeps of <= 0.05 s each: the retry budget is bounded.
        assert elapsed < 2.0

    def test_delayed_coordinator_is_absorbed_by_retries(self):
        port = free_port()

        async def run():
            async def serve(reader, writer):
                await reader.read(65536)
                writer.write(canned_response({"version": 9, "acked_workers": 2}))
                await writer.drain()
                writer.close()

            async def late_start():
                # The coordinator comes back mid-retry, like a respawn.
                await asyncio.sleep(0.15)
                return await asyncio.start_server(serve, "127.0.0.1", port)

            starter = asyncio.ensure_future(late_start())
            status, payload = await forward_delta(
                "127.0.0.1", port, b"{}",
                attempts=FORWARD_ATTEMPTS + 2, base_delay=0.1, max_delay=0.4, seed=1,
            )
            server = await starter
            server.close()
            await server.wait_closed()
            return status, payload

        status, payload = asyncio.run(run())
        assert status == 200
        assert payload == {"version": 9, "acked_workers": 2}

    def test_unparseable_coordinator_response_is_a_502(self):
        async def run():
            async def serve(reader, writer):
                await reader.read(65536)
                writer.write(b"ceci n'est pas du HTTP")
                await writer.drain()
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            status, payload = await forward_delta(
                "127.0.0.1", port, b"{}", attempts=1, seed=0
            )
            server.close()
            await server.wait_closed()
            return status, payload

        status, payload = asyncio.run(run())
        assert status == 502
        assert "unparseable" in payload["error"]

    def test_truncated_coordinator_response_is_a_502_without_retry(self):
        connections = []

        async def run():
            async def serve(reader, writer):
                connections.append(writer)
                await reader.read(65536)
                # Cut mid-body: the delta may already be applied.
                writer.write(canned_response({"version": 9})[:-3])
                writer.close()

            server = await asyncio.start_server(serve, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            async with server:
                return await forward_delta("127.0.0.1", port, b"{}", attempts=3, seed=0)

        status, payload = asyncio.run(run())
        assert (status, len(connections)) == (502, 1)
        assert "unparseable" in payload["error"]


class _SinkWriter:
    def __init__(self):
        self.sent = b""

    def write(self, data):
        self.sent += data

    async def drain(self):
        return None


class TestRetryAfterHeader:
    def render(self, status, payload):
        writer = _SinkWriter()
        asyncio.run(write_http_response(writer, status, payload, keep_alive=False))
        head, _, body = writer.sent.partition(b"\r\n\r\n")
        return head, body

    def test_degraded_503_carries_retry_after(self):
        head, body = self.render(
            503, {"error": "coordinator unreachable", "retry_after_seconds": 7}
        )
        assert b"Retry-After: 7\r\n" in head
        assert json.loads(body)["retry_after_seconds"] == 7

    def test_429_carries_retry_after_too(self):
        head, _ = self.render(429, {"retry_after_seconds": 2})
        assert b"429" in head and b"Retry-After: 2\r\n" in head

    def test_success_never_carries_retry_after(self):
        head, _ = self.render(200, {"ok": True, "retry_after_seconds": 7})
        assert b"Retry-After" not in head

    def test_422_has_its_reason_phrase(self):
        head, _ = self.render(422, {"error": "poison delta"})
        assert head.startswith(b"HTTP/1.1 422 Unprocessable Entity")
