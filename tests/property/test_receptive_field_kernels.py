"""Property tests for the receptive-field kernels: canonicalisation,
bit packing and popcount Jaccard.

Each vectorised kernel is checked against a plain reference kept here:
``copy(); sum_duplicates()`` for :func:`canonical_pattern`, a
``np.bitwise_or.at`` scatter for :meth:`PackedAdjacency.from_csr` and dense
Python sets for the Jaccard terms.  Examples are derandomized and bounded so
the tier-1 run is reproducible and quick.
"""

import tracemalloc

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import coverage_kernels
from repro.core.coverage_kernels import PackedAdjacency
from repro.core.similarity import (
    jaccard_between_sets,
    metapath_similarity_scores,
    pairwise_jaccard,
)
from repro.hetero.sparse import canonical_pattern

bounded = settings(derandomize=True, max_examples=60, deadline=None)


def raw_csr(shape, rows, cols, values=None) -> sp.csr_matrix:
    """CSR holding the entries exactly as given, in the given order within
    each row: duplicates and unsorted columns are kept (no canonicalising)."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    data = np.ones(rows.size) if values is None else np.asarray(values)[order]
    return sp.csr_matrix((data, cols[order], indptr), shape=shape)


@st.composite
def raw_matrices(draw, max_rows=14, max_cols=70, max_entries=60):
    """Non-canonical CSR: repeated columns, unsorted rows, empty rows, nnz 0."""
    n_rows = draw(st.integers(1, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    entries = draw(
        st.lists(
            st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
            max_size=max_entries,
        )
    )
    repeats = draw(st.lists(st.integers(0, max(len(entries) - 1, 0)), max_size=10))
    entries += [entries[i] for i in repeats if entries]
    rows = [row for row, _ in entries]
    cols = [col for _, col in entries]
    values = draw(
        st.lists(st.floats(0.5, 3.0), min_size=len(entries), max_size=len(entries))
    )
    return raw_csr((n_rows, n_cols), rows, cols, values)


def reference_canonical(matrix: sp.csr_matrix) -> sp.csr_matrix:
    reference = matrix.copy()
    reference.sum_duplicates()
    return reference


def reference_words(matrix: sp.csr_matrix) -> np.ndarray:
    """The scatter-OR packing: bit ``col % 64`` of word ``col // 64``."""
    n_rows, n_cols = matrix.shape
    n_words = max(1, (n_cols + 63) // 64)
    words = np.zeros((n_rows, n_words), dtype=np.uint64)
    columns = matrix.indices.astype(np.int64)
    rows = np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(matrix.indptr))
    bits = np.uint64(1) << (columns & 63).astype(np.uint64)
    np.bitwise_or.at(words.reshape(-1), rows * n_words + (columns >> 6), bits)
    return words


def row_sets(matrix: sp.csr_matrix) -> list[set[int]]:
    return [
        set(matrix.indices[matrix.indptr[row] : matrix.indptr[row + 1]].tolist())
        for row in range(matrix.shape[0])
    ]


def assert_same_pattern(result: sp.csr_matrix, reference: sp.csr_matrix) -> None:
    assert result.shape == reference.shape
    assert result.has_canonical_format
    np.testing.assert_array_equal(result.indptr, reference.indptr)
    np.testing.assert_array_equal(result.indices, reference.indices)
    np.testing.assert_array_equal(result.data, np.ones(reference.nnz))


# --------------------------------------------------------------------------- #
# canonical_pattern
# --------------------------------------------------------------------------- #
class TestCanonicalPattern:
    @given(raw_matrices())
    @bounded
    def test_matches_sum_duplicates(self, matrix):
        before = (matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy())
        assert_same_pattern(canonical_pattern(matrix), reference_canonical(matrix))
        for kept, now in zip(before, (matrix.indptr, matrix.indices, matrix.data)):
            np.testing.assert_array_equal(kept, now)  # input never mutated

    @given(st.lists(st.tuples(st.integers(0, 69999), st.integers(0, 39999)), max_size=12))
    @settings(derandomize=True, max_examples=15, deadline=None)
    def test_int64_keys_on_a_large_shape(self, entries):
        # 70000 * 40000 > 2**31: row * n_cols + col needs 64-bit keys.  The
        # far corner and a repeated column sit past the int32 range.
        entries = entries + [(69999, 39999), (69999, 7), (69999, 39999), (1, 5)]
        matrix = raw_csr(
            (70000, 40000), [row for row, _ in entries], [col for _, col in entries]
        )
        assert_same_pattern(canonical_pattern(matrix), reference_canonical(matrix))

    def test_empty_matrix(self):
        matrix = raw_csr((4, 9), [], [])
        matrix.has_canonical_format = False
        assert_same_pattern(canonical_pattern(matrix), reference_canonical(matrix))


# --------------------------------------------------------------------------- #
# PackedAdjacency.from_csr
# --------------------------------------------------------------------------- #
class TestPacking:
    @given(raw_matrices(max_cols=200))
    @bounded
    def test_words_match_scatter_or(self, matrix):
        np.testing.assert_array_equal(
            PackedAdjacency.from_csr(matrix).words, reference_words(matrix)
        )

    def test_words_across_several_chunks(self):
        # 600 rows x 40000 columns is 24M bits: three 8 MiB mask passes.
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 600, size=20000)
        cols = rng.integers(0, 40000, size=20000)
        matrix = raw_csr((600, 40000), rows, cols)
        words = PackedAdjacency.from_csr(matrix).words
        assert matrix.shape[0] * words.shape[1] * 64 > 2 * coverage_kernels.PACK_CHUNK_BITS
        np.testing.assert_array_equal(words, reference_words(matrix))

    def test_words_of_rows_wider_than_a_chunk(self):
        # Each row alone exceeds the chunk, so a chunk ends inside a row.
        n_cols = coverage_kernels.PACK_CHUNK_BITS + 1000
        cols = [0, n_cols - 1, 64, 63, 8 << 20, (8 << 20) - 1, 5, 5, 5]
        matrix = raw_csr((3, n_cols), [0, 0, 0, 0, 1, 1, 2, 2, 2], cols)
        np.testing.assert_array_equal(
            PackedAdjacency.from_csr(matrix).words, reference_words(matrix)
        )

    def test_packing_memory_stays_within_words_plus_16_mib(self):
        rng = np.random.default_rng(1)
        matrix = raw_csr(
            (20000, 20000), rng.integers(0, 20000, 500), rng.integers(0, 20000, 500)
        )
        words_bytes = 20000 * ((20000 + 63) // 64) * 8
        tracemalloc.start()
        try:
            packed = PackedAdjacency.from_csr(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert packed.words.nbytes == words_bytes
        assert peak < words_bytes + (16 << 20), peak - words_bytes


# --------------------------------------------------------------------------- #
# Popcount Jaccard
# --------------------------------------------------------------------------- #
class TestPopcountJaccard:
    @given(raw_matrices(max_rows=10, max_cols=140), st.integers(0, 2**31 - 1))
    @bounded
    def test_pairwise_equals_set_jaccard(self, matrix, seed):
        rng = np.random.default_rng(seed)
        other = raw_csr(
            matrix.shape,
            rng.integers(0, matrix.shape[0], 30),
            rng.integers(0, matrix.shape[1], 30),
        )
        expected = [
            jaccard_between_sets(a, b) for a, b in zip(row_sets(matrix), row_sets(other))
        ]
        np.testing.assert_array_equal(pairwise_jaccard(matrix, other), expected)

    @given(raw_matrices(max_rows=10, max_cols=140), st.integers(2, 4))
    @bounded
    def test_similarity_scores_equal_set_average(self, matrix, copies):
        rng = np.random.default_rng(matrix.nnz)
        adjacencies = [matrix] + [
            matrix[rng.permutation(matrix.shape[0])] for _ in range(copies - 1)
        ]
        sets = [row_sets(adjacency) for adjacency in adjacencies]
        expected = np.zeros((matrix.shape[0], copies))
        for i in range(copies):
            for j in range(copies):
                if i != j:
                    expected[:, i] += [
                        jaccard_between_sets(a, b) for a, b in zip(sets[i], sets[j])
                    ]
        np.testing.assert_allclose(
            metapath_similarity_scores(adjacencies), expected / (copies - 1), rtol=1e-12
        )
