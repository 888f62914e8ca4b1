"""Tests of the benchmark's own machinery, against a stub HTTP server.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import params  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from loadgen import (  # noqa: E402
    Connection,
    RunResult,
    Sample,
    backlogged,
    open_loop,
    percentile,
    queue_grows,
    select_ok_rate,
)
from report import END_TO_END, Report, tail  # noqa: E402


class StubServer:
    """Keep-alive HTTP/1.1 server answering ``POST /work`` bodies.

    A body ``{"sleep": s, "status": code}`` makes the handler wait ``s``
    seconds and answer ``code``; requests on one connection are served
    one after another, like the real server.
    """

    def __init__(self, service_s: float = 0.0) -> None:
        self.service_s = service_s
        self.port = 0
        self._server = None

    async def __aenter__(self) -> "StubServer":
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._server.close()
        await self._server.wait_closed()

    async def _handle(self, reader, writer) -> None:
        try:
            while line := await reader.readline():
                length = 0
                while (header := await reader.readline()) not in (b"\r\n", b""):
                    name, _, value = header.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                request = json.loads(await reader.readexactly(length) or b"{}")
                await asyncio.sleep(request.get("sleep", self.service_s))
                status = request.get("status", 200)
                body = json.dumps({"echo": request.get("i")}).encode()
                writer.write(
                    f"HTTP/1.1 {status} X\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()


def _run(port: int, *, rate: float, duration: float, connections: int = 1, body=None, **kwargs):
    async def go():
        conns = [Connection("127.0.0.1", port) for _ in range(connections)]
        try:
            return await open_loop(
                conns,
                lambda i: ("POST", "/work", {"i": i, **(body(i) if body else {})}),
                rate=rate,
                duration=duration,
                **kwargs,
            )
        finally:
            for conn in conns:
                await conn.close()

    return asyncio.run(go())


def _serve_and_run(service_s: float = 0.0, **kwargs) -> RunResult:
    async def go():
        async with StubServer(service_s) as stub:
            return await asyncio.get_running_loop().run_in_executor(
                None, lambda: _run(stub.port, **kwargs)
            )

    return asyncio.run(go())


# --------------------------------------------------------------------------- #
# The stub runs on its own loop in the main thread; the generator runs its
# own loop in a worker thread, so neither can stall the other's schedule.
# Both still share one interpreter, so every timing bound below leaves room
# for scheduler stalls of ~100 ms on a loaded machine.


def test_latency_is_timed_from_the_due_time():
    # One connection at 100/s; request 5 stalls the server for 400 ms, so the
    # requests queued behind it wait although each is answered at once.
    result = _serve_and_run(
        rate=100, duration=0.5, body=lambda i: {"sleep": 0.4} if i == 5 else {}
    )
    assert result.attempted == 50 and result.failed == 0
    behind = result.samples[6]
    service_ms = (behind.done - behind.sent) * 1e3
    assert service_ms < 150  # answered quickly once sent ...
    assert behind.latency_ms > 380  # ... but charged the wait since it was due
    assert all(s.payload["echo"] == s.index for s in result.samples)


def test_a_server_that_keeps_up_builds_no_backlog():
    result = _serve_and_run(service_s=0.002, rate=50, duration=2.0)
    assert result.failed == 0
    assert not backlogged(result)
    assert max(d for _, d in result.depth) <= 6


def test_a_slow_server_builds_a_backlog():
    # 20 ms per request on one connection is 50/s of capacity, offered 200/s.
    result = _serve_and_run(service_s=0.02, rate=200, duration=0.6)
    assert backlogged(result)
    assert queue_grows(result.depth)
    assert result.achieved_rps() < 0.5 * 200


def test_a_runaway_queue_cuts_the_run_and_counts_unsent():
    result = _serve_and_run(service_s=0.05, rate=400, duration=0.5, max_queue=20)
    assert result.aborted and backlogged(result)
    assert result.unsent > 0
    assert result.attempted + result.unsent == 200


def test_errors_and_timeouts_count_as_failed_misses():
    result = _serve_and_run(
        rate=50,
        duration=0.2,
        timeout=0.5,
        body=lambda i: {"status": 429} if i == 1 else ({"sleep": 1.5} if i == 3 else {}),
    )
    errors = {s.index: s.error for s in result.samples if not s.ok}
    assert errors == {1: "http 429", 3: "timeout"}
    assert result.failed == 2
    assert math.isinf(result.samples[1].latency_ms)
    # the connection was reopened after the timeout
    assert result.samples[4].ok


# --------------------------------------------------------------------------- #
def _synthetic(rate: float, latencies_ms: list[float], *, failed: int = 0) -> RunResult:
    run = RunResult(rate=rate, duration=len(latencies_ms) / rate, start=0.0)
    for index, latency in enumerate(latencies_ms):
        due = index / rate
        status = 500 if index < failed else 200
        run.samples.append(Sample(index, due, due, due + latency / 1e3, status))
        run.depth.append((due, 0))
    return run


def test_ok_rate_is_the_highest_rate_meeting_the_limit():
    fast = [3.0] * 200
    runs = [
        _synthetic(100, fast),
        _synthetic(200, fast),
        _synthetic(400, [3.0] * 390 + [12.0] * 10),  # p99 above 10 ms
        _synthetic(800, fast),
    ]
    assert params.LIMIT_MS == 10.0 and params.LIMIT_PERCENTILE == 99.0
    assert select_ok_rate(runs).rate == 800
    runs[3] = _synthetic(800, fast, failed=1)  # a failure disqualifies
    assert select_ok_rate(runs).rate == 200
    assert select_ok_rate([_synthetic(100, [20.0] * 100)]) is None


def test_percentile_and_tail():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile([1.0, math.inf], 50) == math.inf
    assert percentile([1.0, 2.0, math.inf], 50) == 2.0
    assert tail(list(range(19))) is None
    assert tail(list(range(1000)))[0] == 99.0
    assert tail(list(range(100)))[0] == 90.0


def test_queue_growth():
    assert not queue_grows([(i, i % 2) for i in range(40)])
    assert queue_grows([(i, i) for i in range(40)])


def test_benchmark_json_matches_the_reported_metrics():
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == PER_LAYER
    assert config["command"][1] == "perfbench/run.py"
    import run

    assert {w["name"] for w in config["workloads"]} <= set(run.WORKLOADS)


def test_report_result_follows_the_output_contract():
    report = Report("condense", 0)
    report.end_to_end.update(setup_s=1.0, op_p50_ms=2.0, goodput_per_s=3.0)
    report.count(5, 1)
    report.check("a check", True)
    result = report.result(trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 5 and result["failed"] == 1 and result["correct"]
    assert set(result["metrics"]) == set(END_TO_END)
    traced = report.result(trace=True)
    assert set(traced["metrics"]) == set(PER_LAYER)
    report.check("another", False)
    assert report.result(trace=False)["correct"] is False


@pytest.mark.parametrize("argv", [["--workload", "nope"], []])
def test_run_rejects_bad_arguments(argv):
    import run

    with pytest.raises(SystemExit):
        run.main(argv)
