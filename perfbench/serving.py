"""The HTTP workloads: ``serve-read`` and ``serve-write``.

Each run boots ``python -m repro serve`` as a child process (in its own
process group, stopped and waited for before the run ends) and drives it
with the open-loop generator of :mod:`loadgen`.  Responses are checked
against an in-process :class:`~repro.serving.ServingController` built with
the same arguments.  With tracing on, the server is started with
``--trace`` and the per-layer values come from the spans it writes, its
``/stats`` counters and the response bodies.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

import params
from loadgen import (
    Connection,
    RunResult,
    backlogged,
    open_loop,
    percentile,
    select_ok_rate,
)
from report import Report, median

_SERVING = re.compile(r"serving \S+ on http://([0-9.]+):(\d+)")
#: seconds a server may take to boot and answer
BOOT_TIMEOUT_S = 120.0
#: connections opened while looking for one that reaches a given process
CONNECT_ATTEMPTS = 64


class BenchError(RuntimeError):
    """The benchmark could not drive the system (not a measured failure)."""


class Server:
    """One ``python -m repro serve`` child process."""

    def __init__(self, root: Path, work: Path, *, workers: int = 0, trace: bool = False):
        self.root = root
        self.work = work
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--dataset", params.DATASET, "--ratio", str(params.RATIO),
            "--scale", str(params.SCALE), "--max-hops", str(params.MAX_HOPS),
            "--model", params.MODEL, "--hidden-dim", str(params.HIDDEN_DIM),
            "--epochs", str(params.EPOCHS), "--seed", str(params.GRAPH_SEEDS[0]), "--port", "0",
            "--recondense-threshold", str(params.RECONDENSE_THRESHOLD),
            "--cache-size", str(params.CACHE_SIZE),
        ]
        # Relative paths: the replicated tier puts a unix socket next to the
        # WAL, and socket paths are limited to ~100 bytes.
        relative = work.relative_to(root)
        if workers:
            self.argv += ["--workers", str(workers), "--wal", str(relative / "wal.log")]
        self.trace_path = work / "trace.jsonl" if trace else None
        if trace:
            self.argv += ["--trace", str(relative / "trace.jsonl")]
        self.workers = workers
        self.host, self.port = "127.0.0.1", 0
        self.output: list[str] = []
        self._process: asyncio.subprocess.Process | None = None
        self._reader: asyncio.Task | None = None

    async def start(self) -> float:
        """Boot and wait until the server answers; returns the seconds it took."""
        self.work.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        start = perf_counter()
        self._process = await asyncio.create_subprocess_exec(
            *self.argv, cwd=self.root, env=env, start_new_session=True,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT,
        )
        deadline = start + BOOT_TIMEOUT_S
        while True:
            line = await asyncio.wait_for(
                self._process.stdout.readline(), max(0.1, deadline - perf_counter())
            )
            if not line:
                raise BenchError("server exited during boot:\n" + "".join(self.output[-20:]))
            self.output.append(line.decode(errors="replace"))
            match = _SERVING.search(self.output[-1])
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        self._reader = asyncio.create_task(self._read_rest())
        while not await self._ready():
            if perf_counter() > deadline:
                raise BenchError("server did not become ready")
            await asyncio.sleep(0.02)
        return perf_counter() - start

    async def _read_rest(self) -> None:
        while line := await self._process.stdout.readline():
            self.output.append(line.decode(errors="replace"))

    async def _ready(self) -> bool:
        """Healthy, and in the replicated tier every worker registered."""
        connection = Connection(self.host, self.port)
        try:
            if not self.workers:
                status, _ = await connection.request("GET", "/healthz")
                return status == 200
            status, stats = await connection.request("GET", "/stats")
            registered = stats.get("replicated", {}).get("workers_registered", -1)
            return status == 200 and registered == self.workers
        except (ConnectionError, OSError):
            return False
        finally:
            await connection.close()

    async def connect(self, role: str | None = None) -> Connection:
        """A keep-alive connection, optionally to the process playing ``role``.

        In the replicated tier every process accepts on the same port and
        the kernel picks one per connection; reconnecting until ``/stats``
        names the wanted role pins a connection to it.
        """
        if role is None:
            return Connection(self.host, self.port)
        for _ in range(CONNECT_ATTEMPTS):
            connection = Connection(self.host, self.port)
            _, stats = await connection.request("GET", "/stats")
            found = "coordinator" if "replicated" in stats else stats["controller"].get("role")
            if found == role:
                return connection
            await connection.close()
        raise BenchError(f"no connection reached the {role} process")

    async def stop(self) -> None:
        """Interrupt, wait for exit, and kill the process group if it hangs."""
        process = self._process
        if process is None:
            return
        if process.returncode is None:
            process.send_signal(signal.SIGINT)
            try:
                await asyncio.wait_for(process.wait(), 30)
            except asyncio.TimeoutError:
                pass
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        await process.wait()
        if self._reader is not None:
            await self._reader
        self._process = None

    def spans(self) -> list:
        """Every span the traced server and its workers wrote."""
        from repro.obs.spans import read_trace_tree

        base = self.trace_path
        paths = [base, *sorted(p for p in base.parent.glob(base.name + ".*") if p.is_file())]
        return read_trace_tree(paths)[1]


def _controller():
    """An in-process ServingController with the arguments ``serve`` gets."""
    from repro import registry
    from repro.core import FreeHGC
    from repro.datasets import load_acm
    from repro.evaluation.pipeline import make_model_factory
    from repro.serving import ServingController

    factory = make_model_factory(
        params.MODEL, hidden_dim=params.HIDDEN_DIM, epochs=params.EPOCHS,
        max_hops=params.MAX_HOPS, seed=params.GRAPH_SEEDS[0],
    )
    controller = ServingController(
        load_acm(scale=params.SCALE, seed=params.GRAPH_SEEDS[0]),
        factory,
        model_name=registry.models.canonical(params.MODEL),
        ratio=params.RATIO,
        condenser=FreeHGC(max_hops=params.MAX_HOPS),
        recondense_threshold=params.RECONDENSE_THRESHOLD,
        seed=params.GRAPH_SEEDS[0],
        cache_size=params.CACHE_SIZE,
    )
    controller.start()
    return controller


def _all_labels(controller) -> np.ndarray:
    session = controller.session
    return session.argmax_labels(np.arange(session.num_targets))


def _span_seconds(spans: list, name: str, *, after: float = -1.0) -> list[float]:
    return [s.duration_s for s in spans if s.name == name and s.start_s >= after]


def _cache_hit_ratio(stats: dict, since: dict) -> float:
    """Label-cache hit ratio of the served session between two ``/stats``."""
    cache = stats["session"]["cache"]
    earlier = since.get("session", {}).get("cache", {})
    hits = cache["hits"] - earlier.get("hits", 0)
    total = hits + cache["misses"] - earlier.get("misses", 0)
    return hits / total if total else 0.0


def _batches_of(spans: list, before: int, run: RunResult) -> list:
    """The ``serve.batch_predict`` spans that ran during ``run``.

    Span clocks start at each process's own epoch, so the run's window is
    found on the server side: ``before`` predicts were sent ahead of the
    run, and the run's requests are the next ``run.attempted`` predict
    spans of the process that answered them.
    """
    predicts = sorted(
        (s for s in spans if s.name == "serve.predict"), key=lambda s: s.start_s
    )[before:before + run.attempted]
    if not predicts:
        return []
    scope = predicts[0].scope
    start = predicts[0].start_s
    end = max(s.start_s + s.duration_s for s in predicts)
    return [
        s for s in spans
        if s.name == "serve.batch_predict" and s.scope == scope and start <= s.start_s <= end
    ]


def _read_layers(
    report: Report, run: RunResult, batches: list, stats: dict, since: dict
) -> None:
    """Request-path layers of ``run``: its responses, the server's batches
    during it, and the ``/stats`` counters between ``since`` and ``stats``."""
    good = [s for s in run.samples if s.ok]
    server_ms = [float(s.payload["latency_ms"]) for s in good]
    gap_ms = [(s.done - s.sent) * 1e3 - float(s.payload["latency_ms"]) for s in good]
    engine_ms = median([s.duration_s * 1e3 for s in batches]) if batches else 0.0
    shed = stats["admission"]["shed"] - since.get("admission", {}).get("shed", 0)
    report.layers.update({
        "engine.predict_us": engine_ms * 1e3,
        "engine.cache_hit_ratio": _cache_hit_ratio(stats, since),
        "server.latency_ms": median(server_ms),
        "server.client_gap_ms": median(gap_ms),
        "server.batch_wait_ms": median(server_ms) - engine_ms,
        "server.batch_requests_mean": (
            sum(s.attrs["requests"] for s in batches) / len(batches) if batches else 0.0
        ),
        "admission.shed": float(shed),
        "loadgen.late_p99_ms": percentile(run.late_s, 99.0) * 1e3,
        "loadgen.achieved_ratio": run.achieved_rps() * run.duration / max(1, run.attempted),
    })


def _report_run(report: Report, label: str, run: RunResult) -> float:
    """Print one open-loop run; returns its median due-time latency."""
    p50 = report.timing(f"predict_p50_ms.{label}", run.latencies_ms(), "ms")
    report.note(
        f"    offered={run.rate:g}/s achieved={run.achieved_rps():.1f}/s "
        f"late_p99={percentile(run.late_s, 99.0) * 1e3:.3f}ms "
        f"max_queue={max((d for _, d in run.depth), default=0)} backlog={backlogged(run)} "
        f"attempted={run.attempted} failed={run.failed} unsent={run.unsent}"
    )
    return p50


def _work_dir(root: Path, name: str) -> Path:
    """A fresh directory per boot, so no server recovers another's WAL."""
    parent = root / ".perfbench" / str(os.getpid())
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=parent))


async def _boot_for_setup(root: Path, workers: int) -> float:
    """One extra cold boot, measured and stopped (a setup_s sample)."""
    server = Server(root, _work_dir(root, "setup"), workers=workers)
    try:
        return await server.start()
    finally:
        await server.stop()


# --------------------------------------------------------------------------- #
async def serve_read(report: Report, seed: int, seconds: float, trace: bool, root: Path) -> None:
    """Open-loop ``/predict`` ladder against the single-process tier."""
    reference = _controller()
    expected = _all_labels(reference)
    del reference

    setup = [await _boot_for_setup(root, 0) for _ in range(params.SERVE_BOOTS - 1)]
    server = Server(root, _work_dir(root, "read"), trace=trace)
    runs: list[RunResult] = []
    ladder_ids: list[np.ndarray] = []
    stats: dict[str, dict] = {}  # /stats just before and after the headline run
    try:
        setup.append(await server.start())
        connections = [await server.connect() for _ in range(params.READ_CONNECTIONS)]
        for index, (rate, share) in enumerate(params.READ_LADDER):
            duration = seconds * share
            ids = np.random.default_rng([seed, index]).integers(
                0, expected.size, size=max(1, int(round(rate * duration)))
            )
            if rate == params.READ_HEADLINE_RATE:
                _, stats["before"] = await connections[0].request("GET", "/stats")
            run = await open_loop(
                connections,
                lambda i, ids=ids: ("POST", "/predict", {"nodes": [int(ids[i])]}),
                rate=rate, duration=duration, timeout=params.REQUEST_TIMEOUT_S,
                max_queue=int(rate),
            )
            runs.append(run)
            ladder_ids.append(ids)
            if rate == params.READ_HEADLINE_RATE:
                _, stats["after"] = await connections[0].request("GET", "/stats")
            # The headline rate always runs, so op_p50_ms exists even when a
            # regression makes a lower rate back up.
            if backlogged(run) and rate >= params.READ_HEADLINE_RATE:
                break
        for connection in connections:
            await connection.close()
    finally:
        await server.stop()

    wrong = 0
    for run, ids in zip(runs, ladder_ids):
        report.count(run.attempted, run.failed)
        for sample in run.samples:
            if sample.ok and sample.payload["labels"] != [int(expected[ids[sample.index]])]:
                wrong += 1
    report.check("predict labels equal in-process controller", wrong == 0, f"{wrong} wrong")

    p50 = [_report_run(report, f"r{run.rate:g}", run) for run in runs]
    headline_index = [run.rate for run in runs].index(params.READ_HEADLINE_RATE)
    headline = runs[headline_index]
    report.value(
        f"predict_p99_ms.r{headline.rate:g}", percentile(headline.latencies_ms(), 99.0), "ms",
        f"n={headline.attempted}",
    )
    ok = select_ok_rate(runs)
    report.value("predict_ok_rps", ok.rate if ok else 0.0, "req/s", "ladder rate")
    # Gated instead of predict_ok_rps, which jumps between ladder rates when
    # the p99 at 400 req/s sits near the limit.  This is not the server's
    # capacity: each connection carries one request at a time, so the
    # saturated ladder reaches 2 connections / round trip, and the round
    # trip is mostly the 2 ms batch window.
    goodput = report.value(
        "predict_peak_rps", max(run.achieved_rps() for run in runs), "req/s",
        "highest achieved rate on the ladder (2-connection round-trip ceiling)",
    )
    setup_s = report.timing("setup_s", setup, "s")
    report.end_to_end.update(
        setup_s=setup_s, op_p50_ms=p50[headline_index], goodput_per_s=goodput
    )

    if trace:
        batches = _batches_of(
            server.spans(), sum(run.attempted for run in runs[:headline_index]), headline
        )
        _read_layers(report, headline, batches, stats["after"], stats["before"])
        report.layers["engine.session_build_s"] = float(
            stats["after"]["session"]["precompute_seconds"]
        )


# --------------------------------------------------------------------------- #
async def _post_deltas(connection: Connection, schedule: list, start: float) -> list[dict]:
    """Send each delta at its cadence slot (or when the previous one acked)."""
    outcomes = []
    for index, delta in enumerate(schedule):
        due = start + (index + 0.5) * params.DELTA_CADENCE_S
        delay = due - perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = perf_counter()
        status, payload, error = 0, None, None
        try:
            status, payload = await asyncio.wait_for(
                connection.request("POST", "/delta", delta.to_payload()),
                params.DELTA_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError, ValueError) as exc:
            error = type(exc).__name__
            await connection.close()
        outcomes.append({
            "delta": delta, "due": due, "sent": sent, "done": perf_counter(),
            "status": status, "payload": payload, "error": error,
        })
    return outcomes


def _stale_reads(samples: list, acks: list[tuple[float, int]]) -> int:
    """Reads sent after an ack that carry an older version than it."""
    stale = 0
    for sample in samples:
        if not sample.ok:
            continue
        floor = max((version for done, version in acks if done < sample.sent), default=0)
        if int(sample.payload["version"]) < floor:
            stale += 1
    return stale


async def serve_write(report: Report, seed: int, seconds: float, trace: bool, root: Path) -> None:
    """Reads at a fixed rate beside a delta cadence on the replicated tier."""
    from repro.datasets import load_acm
    from repro.datasets.generators import generate_delta_schedule

    graph = load_acm(scale=params.SCALE, seed=params.GRAPH_SEEDS[0])
    targets = graph.num_nodes[graph.schema.target_type]
    schedule = generate_delta_schedule(
        graph,
        steps=max(1, int(seconds / params.DELTA_CADENCE_S)),
        seed=params.WRITE_SCHEDULE_SEED,
        edge_churn=params.WRITE_CHURN,
        relations=params.WRITE_RELATIONS,
    )
    del graph

    workers = params.WRITE_WORKERS
    setup = [await _boot_for_setup(root, workers) for _ in range(params.SERVE_BOOTS - 1)]
    server = Server(root, _work_dir(root, "write"), workers=workers, trace=trace)
    try:
        setup.append(await server.start())
        reads = await server.connect("worker")
        writes = await server.connect("coordinator")
        _, before = await writes.request("GET", "/stats")
        ids = np.random.default_rng([seed, 0]).integers(
            0, targets, size=max(1, int(round(params.WRITE_READ_RATE * seconds)))
        )
        run, deltas = await asyncio.gather(
            open_loop(
                [reads],
                lambda i: ("POST", "/predict", {"nodes": [int(ids[i])]}),
                rate=params.WRITE_READ_RATE, duration=seconds,
                timeout=params.REQUEST_TIMEOUT_S, max_queue=params.WRITE_READ_RATE,
            ),
            _post_deltas(writes, schedule, perf_counter()),
        )
        _, read_stats = await reads.request("GET", "/stats")
        _, final = await reads.request("POST", "/predict", {"nodes": list(range(targets))})
        _, after = await writes.request("GET", "/stats")
        await reads.close()
        await writes.close()
    finally:
        await server.stop()

    acked = [d for d in deltas if d["status"] == 200]
    report.count(run.attempted, run.failed)
    report.count(len(deltas), len(deltas) - len(acked))
    acks = [(d["done"], int(d["payload"]["version"])) for d in acked]
    stale = _stale_reads(run.samples, acks)
    report.check("no stale read after an ack", stale == 0, f"{stale} stale of {run.attempted}")

    replay = _controller()
    for outcome in acked:
        replay.apply_delta(outcome["delta"])
    expected = _all_labels(replay)
    versions = [version for _, version in acks]
    report.check(
        "each ack bumps the version by one",
        versions == list(range(2, 2 + len(acks))),
        f"acked versions {versions[:3]}..{versions[-1:]}",
    )
    last_version = versions[-1] if versions else 1
    report.check(
        "final labels equal in-process replay",
        final.get("labels") == expected.tolist() and final.get("version") == last_version,
        f"{len(acked)} acked deltas, served version {final.get('version')}",
    )

    ack_ms = [(d["done"] - d["sent"]) * 1e3 for d in acked]
    ack_ms += [float("inf")] * (len(deltas) - len(acked))
    delta_ack = report.timing("delta_ack_ms", ack_ms, "ms")
    retrained = sum(1 for d in acked if d["payload"]["retrained"])
    report.note(f"deltas acked={len(acked)}/{len(deltas)} retrained={retrained}")
    report.timing("delta_late_ms", [(d["sent"] - d["due"]) * 1e3 for d in deltas], "ms")
    _report_run(report, "write", run)
    report.value(
        "predict_p99_ms.write", percentile(run.latencies_ms(), 99.0), "ms", f"n={run.attempted}"
    )
    # A regression guard only: the offer is fixed, so this sits at the
    # offered rate and falls only when reads beside the writes miss the limit.
    goodput = report.value(
        "predict_good_rps.write", run.achieved_rps(params.LIMIT_MS), "req/s",
        f"within {params.LIMIT_MS:g} ms (at most the offered rate)",
    )
    setup_s = report.timing("setup_s", setup, "s")
    report.end_to_end.update(setup_s=setup_s, op_p50_ms=delta_ack, goodput_per_s=goodput)

    if trace:
        _write_layers(report, server, run, read_stats, before, after, acked, targets)


def _write_layers(report, server, run, read_stats, before, after, acked, targets) -> None:
    spans = server.spans()
    _read_layers(report, run, _batches_of(spans, 0, run), read_stats, {})
    first_swap = min((s.start_s for s in spans if s.name == "swap.apply"), default=0.0)
    replies = [d["payload"] for d in acked]

    def med(values):
        return median(values) if values else 0.0

    swap_s = [float(p["swap_seconds"]) for p in replies]
    train_s = [float(p["train_seconds"]) for p in replies if p["retrained"]]
    memo_before = before["controller"]["coverage_memo"]
    memo_after = after["controller"]["coverage_memo"]
    memo = {k: memo_after[k] - memo_before.get(k, 0) for k in memo_after}
    lookups = memo["hits"] + memo["warm_starts"] + memo["misses"]
    events = [
        e.name for s in spans if s.start_s >= first_swap for e in s.events
        if e.name.startswith("memo.")
    ]
    stage_hits = sum(1 for e in events if e.endswith("_hits"))
    report.layers.update({
        "engine.session_build_s": med(_span_seconds(spans, "swap.build_session")),
        "models.fit_s": med(_span_seconds(spans, "swap.train")),
        "models.fits": float(len(_span_seconds(spans, "swap.train"))),
        "streaming.apply_s": med(_span_seconds(spans, "stream.apply_delta", after=first_swap)),
        "streaming.recondense_s": med([float(p["condense_seconds"]) for p in replies]),
        "streaming.selection_memo.hit_ratio": memo["hits"] / lookups if lookups else 0.0,
        "streaming.stage_memo.hit_ratio": stage_hits / len(events) if events else 0.0,
        "hotswap.swap_s": med(swap_s),
        "hotswap.condense_s": med([float(p["condense_seconds"]) for p in replies]),
        "hotswap.train_s": med(train_s),
        "hotswap.retrain_ratio": len(train_s) / len(replies) if replies else 0.0,
        "hotswap.dirty_share": med([p["dirty_count"] / targets for p in replies]),
        "replicated.commit_overhead_ms": med(
            [(d["done"] - d["sent"] - float(d["payload"]["swap_seconds"])) * 1e3 for d in acked]
        ),
        "replicated.wal_append_s": med(_span_seconds(spans, "commit.wal_append")),
        "replicated.publish_s": med(_span_seconds(spans, "commit.publish")),
        "replicated.fan_out_s": med(_span_seconds(spans, "commit.fan_out")),
    })
