"""Per-layer names and the in-process layer timer of the traced runs.

:class:`LayerTimer` wraps public functions of ``repro`` modules (the
attributes the calling module actually looks up) for the duration of a
``with`` block and accumulates each layer's *self* time: a call's duration
minus the time spent in nested calls of other timed layers.  Self times of
different layers therefore never double-count, and an operation's time
minus the sum of its layers' self times is what no timed layer covers.
"""

from __future__ import annotations

import importlib
from time import perf_counter

#: every per-layer metric the traced run reports, with its unit
PER_LAYER = {
    "core.context.compose_s": "s",
    "core.criterion.select_s": "s",
    "core.coverage.greedy_s": "s",
    "core.coverage.greedy_calls": "count",
    "core.similarity.scores_s": "s",
    "core.nim.ppr_s": "s",
    "core.nim.ppr_calls": "count",
    "core.synthesis.ilm_s": "s",
    "core.assemble_s": "s",
    "core.unattributed_s": "s",
    "streaming.apply_s": "s",
    "streaming.patched_paths": "count",
    "streaming.invalidated_paths": "count",
    "streaming.recondense_s": "s",
    "streaming.selection_memo.hit_ratio": "ratio",
    "streaming.stage_memo.hit_ratio": "ratio",
    "streaming.selection_drift": "count",
    "streaming.full_recondense_s": "s",
    "models.fit_s": "s",
    "models.fits": "count",
    "engine.predict_us": "us",
    "engine.cache_hit_ratio": "ratio",
    "engine.session_build_s": "s",
    "server.latency_ms": "ms",
    "server.client_gap_ms": "ms",
    "server.batch_wait_ms": "ms",
    "server.batch_requests_mean": "count",
    "admission.shed": "count",
    "hotswap.swap_s": "s",
    "hotswap.condense_s": "s",
    "hotswap.train_s": "s",
    "hotswap.retrain_ratio": "ratio",
    "hotswap.dirty_share": "ratio",
    "replicated.commit_overhead_ms": "ms",
    "replicated.wal_append_s": "s",
    "replicated.publish_s": "s",
    "replicated.fan_out_s": "s",
    "loadgen.late_p99_ms": "ms",
    "loadgen.achieved_ratio": "ratio",
    "trace.overhead_ms": "ms",
}

#: the core layers whose self times ``core.unattributed_s`` subtracts
CORE_LAYERS = (
    "core.context.compose_s",
    "core.criterion.select_s",
    "core.coverage.greedy_s",
    "core.similarity.scores_s",
    "core.nim.ppr_s",
    "core.synthesis.ilm_s",
    "core.assemble_s",
)

#: (module, class or None, attribute, layer): where each layer is entered.
#: Functions are patched in the module that *calls* them, because those
#: modules bind them by ``from ... import`` at import time.
PATCHES = (
    ("repro.core.context", "CondensationContext", "adjacency", "core.context.compose_s"),
    ("repro.core.context", "CondensationContext", "receptive_field", "core.context.compose_s"),
    ("repro.core.context", "CondensationContext", "packed_receptive_field", "core.context.compose_s"),
    ("repro.core.criterion", "TargetNodeSelector", "select", "core.criterion.select_s"),
    ("repro.core.criterion", None, "greedy_max_coverage", "core.coverage.greedy_s"),
    ("repro.streaming.warmstart", None, "greedy_max_coverage", "core.coverage.greedy_s"),
    ("repro.streaming.warmstart", None, "warm_start_coverage", "core.coverage.greedy_s"),
    ("repro.core.criterion", None, "metapath_similarity_scores", "core.similarity.scores_s"),
    ("repro.streaming.warmstart", "SelectionMemo", "group_similarity", "core.similarity.scores_s"),
    ("repro.core.neighbor_influence", None, "personalized_pagerank", "core.nim.ppr_s"),
    ("repro.core.synthesis", "InformationLossMinimizer", "synthesize", "core.synthesis.ilm_s"),
    ("repro.core.condenser", None, "assemble_condensed_graph", "core.assemble_s"),
    ("repro.streaming.apply", "DeltaApplier", "apply", "streaming.apply_s"),
    ("repro.models.base", "HGNNClassifier", "fit", "models.fit_s"),
)

#: call-count metric of a timed layer
CALL_COUNTS = {
    "core.coverage.greedy_s": "core.coverage.greedy_calls",
    "core.nim.ppr_s": "core.nim.ppr_calls",
    "models.fit_s": "models.fits",
}


class LayerTimer:
    """Self time and outermost-call counts per layer while installed."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list] = []  # [layer, seconds spent in timed children]
        self._saved: list[tuple[object, str, object]] = []

    def snapshot(self) -> dict[str, float]:
        """Current totals: self seconds per layer plus the call counts."""
        values = dict(self.seconds)
        for layer, count_name in CALL_COUNTS.items():
            values[count_name] = float(self.calls.get(layer, 0))
        return values

    def _wrap(self, function, layer: str):
        stack = self._stack

        def timed(*args, **kwargs):
            outer = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.seconds[layer] = self.seconds.get(layer, 0.0) + elapsed - frame[1]
                if outer is None or outer[0] != layer:
                    self.calls[layer] = self.calls.get(layer, 0) + 1
                if outer is not None:
                    outer[1] += elapsed

        timed.__wrapped__ = function
        return timed

    def __enter__(self) -> "LayerTimer":
        for module_name, class_name, attribute, layer in PATCHES:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, layer))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


def difference(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    """Per-layer totals accumulated between two snapshots."""
    return {name: value - before.get(name, 0.0) for name, value in after.items()}
