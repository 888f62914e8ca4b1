"""The in-process workloads: ``condense`` and ``stream-churn``.

Both call the library's public entry points directly —
``FreeHGC.condense`` and ``IncrementalCondenser.step`` — on the dataset's
fixed graphs (``params.GRAPH_SEEDS``); the run's seed drives the delta
schedules of ``stream-churn``.  With tracing on, a :class:`layers.LayerTimer` times
the calls into each core and streaming layer; per-layer values are medians
over operations.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import params
from layers import CORE_LAYERS, LayerTimer, difference
from report import Report, median_layers


def graph_digest(graph) -> str:
    """SHA-256 over a graph's counts, labels, splits, features and edges."""
    digest = hashlib.sha256()
    digest.update(repr(sorted(graph.num_nodes.items())).encode())
    arrays = [graph.labels, graph.splits.train, graph.splits.val, graph.splits.test]
    arrays += [graph.features[t] for t in sorted(graph.features)]
    for name in sorted(graph.adjacency):
        matrix = graph.adjacency[name].tocsr()
        digest.update(name.encode())
        arrays += [matrix.indptr, matrix.indices, matrix.data]
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str((array.dtype.str, array.shape)).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _condenser():
    from repro.core import FreeHGC

    return FreeHGC(max_hops=params.MAX_HOPS)


def _load(seed: int):
    from repro.datasets import load_acm

    return load_acm(scale=params.SCALE, seed=seed)


def _core_layers(layers: dict[str, float], op_seconds: float) -> dict[str, float]:
    layers["core.unattributed_s"] = op_seconds - sum(layers.get(n, 0.0) for n in CORE_LAYERS)
    return layers


# --------------------------------------------------------------------------- #
def run_condense(report: Report, seed: int, seconds: float, trace: bool) -> None:
    """Repeated cold ``FreeHGC.condense`` on fresh copies of a few graphs."""
    from repro.streaming import GraphMismatchError, assert_graphs_equal

    graphs, setup = [], []
    for graph_seed in params.GRAPH_SEEDS:
        start = perf_counter()
        graph = _load(graph_seed)
        first = _condenser().condense(graph, params.RATIO)
        setup.append(perf_counter() - start)
        graphs.append((graph_seed, graph, first))
        report.note(f"graph seed={graph_seed} condensed digest={graph_digest(first)[:16]}")
    report.count(len(graphs))

    timer = LayerTimer() if trace else None
    durations, per_op, mismatches = [], [], []
    with timer or nullcontext():
        window = perf_counter()
        while not durations or perf_counter() - window < seconds:
            graph_seed, graph, first = graphs[len(durations) % len(graphs)]
            fresh = graph.copy()
            before = timer.snapshot() if timer else None
            start = perf_counter()
            condensed = _condenser().condense(fresh, params.RATIO)
            elapsed = perf_counter() - start
            durations.append(elapsed)
            if timer:
                per_op.append(_core_layers(difference(timer.snapshot(), before), elapsed))
            try:
                assert_graphs_equal(condensed, first)
            except GraphMismatchError as exc:
                mismatches.append(f"graph seed {graph_seed}: {exc}")
        window = perf_counter() - window
    report.count(len(durations))

    report.check(
        "condense repeats equal the first",
        not mismatches,
        "; ".join(mismatches[:3]) or f"{len(durations)} repeats",
    )
    condense_s = report.timing("condense_s", durations, "s")
    setup_s = report.timing("setup_s", setup, "s")
    rate = report.value("condense_per_s", len(durations) / window, "1/s", f"window={window:.2f}s")
    report.end_to_end.update(setup_s=setup_s, op_p50_ms=condense_s * 1e3, goodput_per_s=rate)
    if timer:
        report.layers.update(median_layers(per_op))


# --------------------------------------------------------------------------- #
class _Stream:
    """One incremental condenser over its own graph and delta schedule."""

    def __init__(self, graph_seed: int, schedule_seed: int, steps: int) -> None:
        from repro.datasets.generators import generate_delta_schedule
        from repro.streaming import IncrementalCondenser

        self.graph_seed = graph_seed
        start = perf_counter()
        graph = _load(graph_seed)
        load_seconds = perf_counter() - start
        self.schedule = generate_delta_schedule(
            graph,
            steps=steps,
            seed=schedule_seed,
            edge_churn=params.STREAM_CHURN,
            relations=params.STREAM_RELATIONS,
        )
        start = perf_counter()
        self.incremental = IncrementalCondenser(
            graph, condenser=_condenser(), ratio=params.RATIO, seed=0
        )
        self.condensed = self.incremental.condense()
        self.setup_seconds = load_seconds + perf_counter() - start
        self.position = 0

    def memo_counts(self) -> dict[str, int]:
        return {**self.incremental.selection_memo.stats, **self.incremental.stage_memo.stats}


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _stream_layers(before: dict, after: dict, step) -> dict[str, float]:
    memo = difference(after, before)
    selection = memo["hits"] + memo["warm_starts"] + memo["misses"]
    stage_hits = memo["target_hits"] + memo["stage_hits"]
    stage_total = stage_hits + memo["target_misses"] + memo["stage_misses"]
    apply = step.apply_report
    return {
        "streaming.patched_paths": float(len(apply.patched_paths)) if apply else 0.0,
        "streaming.invalidated_paths": float(len(apply.invalidated_paths)) if apply else 0.0,
        "streaming.recondense_s": step.condense_seconds,
        "streaming.selection_memo.hit_ratio": _ratio(memo["hits"], selection),
        "streaming.stage_memo.hit_ratio": _ratio(stage_hits, stage_total),
        "streaming.selection_drift": float(step.selection_drift),
    }


def run_stream_churn(report: Report, seed: int, seconds: float, trace: bool) -> None:
    """``IncrementalCondenser.step`` over default-churn delta schedules."""
    from repro.streaming import GraphMismatchError, assert_graphs_equal

    # Schedules are generated long enough for any run length; a step of a
    # 3x ACM graph takes about a second.
    steps = int(seconds) + 4
    streams = [
        _Stream(params.GRAPH_SEEDS[index], params.schedule_seed(seed, index), steps)
        for index in range(params.STREAM_GRAPHS)
    ]
    report.count(len(streams))

    timer = LayerTimer() if trace else None
    durations, per_op, mismatches = [], [], []
    with timer or nullcontext():
        window = perf_counter()
        while not durations or perf_counter() - window < seconds:
            stream = streams[len(durations) % len(streams)]
            if stream.position == len(stream.schedule):
                break
            delta = stream.schedule[stream.position]
            stream.position += 1
            before = timer.snapshot() if timer else None
            memo_before = stream.memo_counts()
            start = perf_counter()
            step = stream.incremental.step(delta)
            elapsed = perf_counter() - start
            durations.append(elapsed)
            stream.condensed = step.condensed
            if timer:
                layers = difference(timer.snapshot(), before)
                layers = _core_layers(layers, step.condense_seconds)
                layers.update(_stream_layers(memo_before, stream.memo_counts(), step))
                # The crossover reference: a cold condense of the same
                # mutated graph (outside the step's timing).
                start = perf_counter()
                full = _condenser().condense(stream.incremental.graph.copy(), params.RATIO)
                layers["streaming.full_recondense_s"] = perf_counter() - start
                per_op.append(layers)
                try:
                    assert_graphs_equal(step.condensed, full)
                except GraphMismatchError as exc:
                    mismatches.append(f"stream {stream.graph_seed} step {delta.step}: {exc}")
        window = perf_counter() - window
    report.count(len(durations))

    for stream in streams:
        full = _condenser().condense(stream.incremental.graph.copy(), params.RATIO)
        try:
            assert_graphs_equal(stream.condensed, full)
        except GraphMismatchError as exc:
            mismatches.append(f"stream {stream.graph_seed} final: {exc}")
        report.note(
            f"stream seed={stream.graph_seed} steps={stream.position} "
            f"final digest={graph_digest(stream.condensed)[:16]}"
        )
    report.check(
        "incremental equals full recondense",
        not mismatches,
        "; ".join(mismatches[:3]) or f"{len(streams)} streams",
    )
    step_s = report.timing("stream_step_s", durations, "s")
    setup_s = report.timing("setup_s", [s.setup_seconds for s in streams], "s")
    rate = report.value("stream_steps_per_s", len(durations) / window, "1/s", f"window={window:.2f}s")
    report.end_to_end.update(setup_s=setup_s, op_p50_ms=step_s * 1e3, goodput_per_s=rate)
    if timer:
        report.layers.update(median_layers(per_op))
