"""End-to-end, layer-attributed benchmark of the FreeHGC system.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stream-churn --seed 0 --seconds 24 --trace 0

Workloads (all on ACM at scale 3.0, ratio 0.024, K=3; see ``params.py``).
``BENCHMARK.json`` gates the last three, which between them run every
layer; ``condense`` runs on request.  Its figure follows the host's slow
drift in CPU speed (about 15% over minutes on a 2-CPU VM) as closely as
``stream-churn``'s does, and gating a fourth workload would leave every
run shorter:

``condense``
    Repeated cold ``FreeHGC.condense`` calls on fresh graph copies.
``stream-churn``
    ``IncrementalCondenser.step`` over default-churn delta schedules.
``serve-read``
    Open-loop ``/predict`` ladder against ``python -m repro serve``.
``serve-write``
    ``/predict`` at a fixed rate beside a ``/delta`` cadence on the
    replicated tier (``serve --workers 1 --wal ...``).

Every workload reports ``setup_s``, ``op_p50_ms`` (median latency of its
headline operation: a condense call, a stream step, a predict at 400 req/s,
a delta's send-to-ack) and ``goodput_per_s`` (condense calls or stream
steps per second; for ``serve-read`` the highest predict rate achieved on
the ladder, which is the round-trip ceiling of its 2 connections, each
carrying one request at a time, not the server's capacity; for
``serve-write`` the predicts per second that met the 10 ms limit beside the
writes, which sits at the fixed offer and so only guards against a
regression).  Each workload's own metrics (``condense_s``,
``stream_step_s``, ``predict_p50_ms.r400``, ``delta_ack_ms``, ...) are
printed above them.
``--trace 1`` runs the workload for half the seconds untraced, then for
the other half with the layer timers and the server's spans on, and
reports the per-layer table plus the tracing overhead.  The last line of
standard output is the JSON result; the exit code is 1 when a correctness
check failed, 2 when the checkout holds no ``src/repro``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("condense", "stream-churn", "serve-read", "serve-write")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload: str, seed: int, seconds: float, trace: bool):
    from inproc import run_condense, run_stream_churn
    from report import Report
    from serving import serve_read, serve_write

    report = Report(workload, seed)
    if workload == "condense":
        run_condense(report, seed, seconds, trace)
    elif workload == "stream-churn":
        run_stream_churn(report, seed, seconds, trace)
    elif workload == "serve-read":
        asyncio.run(serve_read(report, seed, seconds, trace, ROOT))
    else:
        asyncio.run(serve_write(report, seed, seconds, trace, ROOT))
    return report


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        if not args.trace:
            report = _run(args.workload, args.seed, args.seconds, trace=False)
        else:
            # Half the time untraced, half traced: the traced pass gives the
            # layers, and the difference of the two is the tracing overhead.
            plain = _run(args.workload, args.seed, args.seconds / 2, trace=False)
            report = _run(args.workload, args.seed, args.seconds / 2, trace=True)
            report.lines[:0] = ["  untraced pass:", *plain.lines, "  traced pass:"]
            report.checks[:0] = plain.checks
            report.count(plain.attempted, plain.failed)
            report.layers["trace.overhead_ms"] = (
                report.end_to_end["op_p50_ms"] - plain.end_to_end["op_p50_ms"]
            )
    finally:
        work = ROOT / ".perfbench"
        shutil.rmtree(work / str(os.getpid()), ignore_errors=True)
        if work.is_dir() and not any(work.iterdir()):
            work.rmdir()
    print(report.render(trace=bool(args.trace)), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
