"""What one benchmark run measured, checked and prints.

Every workload fills a :class:`Report`.  Its human-readable lines name each
metric of the workload with its unit, its median, the highest percentile
that has at least ten samples beyond it, and the sample count.  The last
line is the JSON result: with tracing off it carries the end-to-end
metrics of :data:`END_TO_END`, with tracing on every per-layer metric of
:data:`layers.PER_LAYER`.
"""

from __future__ import annotations

import json
import math
import statistics

from layers import PER_LAYER
from loadgen import percentile

#: the end-to-end metrics every workload reports, with their units.  Each
#: workload defines them on its own headline operation (see ``run.py``).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "goodput_per_s": "1/s",
}

#: percentiles tried, highest first, for the tail column
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: samples a tail percentile must have beyond it
TAIL_MIN_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float] | None:
    """``(q, value)`` of the highest percentile with ``TAIL_MIN_BEYOND`` samples above it."""
    for q in TAIL_CANDIDATES:
        if len(values) * (100.0 - q) >= TAIL_MIN_BEYOND * 100.0 - 1e-6:
            return q, percentile(values, q)
    return None


def median(values: list[float]) -> float:
    """Median of finite or infinite samples (``nan`` when empty)."""
    return percentile(list(values), 50.0) if values else math.nan


class Report:
    """Metrics, correctness checks and operation counts of one run."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.lines: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.checks: list[tuple[str, bool, str]] = []
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------------ #
    def timing(self, name: str, values: list[float], unit: str) -> float:
        """Print a timing as median, tail and count; returns the median."""
        value = median(values)
        high = tail(values)
        spread = f"p{high[0]:g}={high[1]:.4f}" if high else "tail: n<20"
        self.lines.append(
            f"  {name:<28} {value:>12.4f} {unit:<5} {spread:<20} n={len(values)}"
        )
        return value

    def value(self, name: str, value: float, unit: str, note: str = "") -> float:
        """Print a single measured value (a rate, a ratio, a count)."""
        self.lines.append(f"  {name:<28} {value:>12.4f} {unit:<5} {note}")
        return value

    def note(self, text: str) -> None:
        self.lines.append(f"  {text}")

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check (any failure makes the run incorrect)."""
        self.checks.append((name, bool(ok), detail))
        self.lines.append(f"  check {name:<32} {'ok' if ok else 'FAILED'} {detail}")
        return bool(ok)

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    # ------------------------------------------------------------------ #
    def result(self, *, trace: bool) -> dict:
        """The JSON result object of the output contract."""
        if trace:
            units = PER_LAYER
            values = {name: self.layers.get(name, 0.0) for name in units}
        else:
            units = END_TO_END
            values = {name: self.end_to_end[name] for name in units}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(values[name]), "unit": units[name]} for name in units
            },
        }

    def render(self, *, trace: bool) -> str:
        """Every printed line, the layer table when traced, then the JSON line."""
        out = [f"workload={self.workload} seed={self.seed} trace={int(trace)}", *self.lines]
        out.append(
            f"  operations attempted={self.attempted} failed={self.failed} "
            f"correct={self.correct}"
        )
        if trace:
            out.append("  per-layer (median per operation unless a count or ratio):")
            for name, unit in PER_LAYER.items():
                out.append(f"    {name:<38} {self.layers.get(name, 0.0):>14.6f} {unit}")
        else:
            for name, unit in END_TO_END.items():
                out.append(f"  => {name:<25} {self.end_to_end[name]:>12.4f} {unit}")
        out.append(json.dumps(self.result(trace=trace), sort_keys=True))
        return "\n".join(out)


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer median over operations (a layer absent from an op counts 0)."""
    names = {name for op in per_op for name in op}
    return {
        name: statistics.median(op.get(name, 0.0) for op in per_op) for name in names
    }
