"""Superseded adjacencies are freed by reference counting.

The derived structures cached on an adjacency (binarised form, packed
words, CSC index) and the streaming memos must not keep a replaced
adjacency alive or tie it into a reference cycle: with the cycle collector
off, the number of live sparse matrices stays flat over a stream's steps.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from repro.core import FreeHGC
from repro.core.coverage_kernels import PackedAdjacency
from repro.datasets import load_acm
from repro.datasets.generators import generate_delta_schedule
from repro.hetero.sparse import boolean_csr, cached_csc
from repro.streaming import IncrementalCondenser


@contextmanager
def cycle_collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def live_sparse_matrices() -> int:
    return sum(isinstance(obj, sp.spmatrix) for obj in gc.get_objects())


def test_cached_derivatives_form_no_cycle():
    rng = np.random.default_rng(0)
    pattern = rng.random((40, 90)) < 0.1
    for value in (1.0, 2.0):  # already boolean, and binarised on a copy
        matrix = sp.csr_matrix(pattern * value)
        with cycle_collector_off():
            boolean = boolean_csr(matrix)
            assert boolean_csr(boolean) is boolean
            packed = PackedAdjacency.from_csr_cached(boolean)
            assert packed.source is boolean
            cached_csc(boolean)
            refs = [weakref.ref(matrix), weakref.ref(boolean)]
            del matrix, boolean
            assert [ref() for ref in refs] == [None, None]
            assert packed.source is None


def test_stream_steps_keep_live_matrices_flat():
    graph = load_acm(scale=0.3, seed=0)
    schedule = generate_delta_schedule(graph, steps=6, seed=1, edge_churn=0.004)
    incremental = IncrementalCondenser(
        graph, condenser=FreeHGC(max_hops=2), ratio=0.1, seed=0
    )
    incremental.condense()
    counts = []
    with cycle_collector_off():
        for delta in schedule:
            assert incremental.step(delta).mode == "incremental"
            counts.append(live_sparse_matrices())
    assert max(counts) == counts[0], counts
