"""Meta-path similarity minimisation (Section IV-B, Eq. 4–7).

Two meta-paths can expose a node to almost the same region of the graph
(Fig. 4: PAP vs PFP for a hub paper).  To reward nodes whose meta-paths look
at *different* regions, FreeHGC computes, for every node and every meta-path,
the average Jaccard similarity between the node's neighbour set under that
meta-path and its neighbour sets under all other related meta-paths
(Eq. 5–6); the selection criterion then adds the complement ``1 − Ĵ`` as a
diversity bonus (Eq. 8).

Every pairwise intersection is a popcount over the bit-packed receptive
fields (:class:`~repro.core.coverage_kernels.PackedAdjacency`) that the
coverage kernels already cache on each adjacency: ``|N_a(v) ∩ N_b(v)|`` is
``popcount(words_a[v] & words_b[v])`` and the set sizes come from the same
words, so duplicate stored entries count once, as Eq. 4 requires.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.coverage_kernels import PackedAdjacency
from repro.hetero.sparse import boolean_csr

__all__ = ["pairwise_jaccard", "metapath_similarity_scores", "jaccard_between_sets"]


def jaccard_between_sets(first: set[int], second: set[int]) -> float:
    """Plain Jaccard index between two index sets (Eq. 4)."""
    union = len(first | second)
    if union == 0:
        return 1.0
    return len(first & second) / union


def packed_sets(adjacency: sp.spmatrix) -> PackedAdjacency:
    """The packed neighbour sets of ``adjacency``, cached on the matrix.

    Boolean CSR input (everything the condensation context serves) is
    packed as-is, so the words are the ones the coverage kernels use.
    """
    return PackedAdjacency.from_csr_cached(boolean_csr(adjacency))


def row_jaccard(
    intersection: np.ndarray, size_a: np.ndarray, size_b: np.ndarray
) -> np.ndarray:
    """Per-row Jaccard from intersection and set sizes; an empty union is 1."""
    union = size_a + size_b - intersection
    result = np.ones(intersection.shape[0], dtype=np.float64)
    nonzero = union > 0
    result[nonzero] = intersection[nonzero] / union[nonzero]
    return result


def pairwise_jaccard(
    adjacency_a: sp.csr_matrix, adjacency_b: sp.csr_matrix
) -> np.ndarray:
    """Per-row Jaccard similarity between two boolean adjacency matrices.

    Row ``v`` of the result is ``J(N_a(v), N_b(v))`` (Eq. 5 evaluated per
    node).  Rows with an empty union are defined to have similarity 1, as in
    the paper ("we say J = 1 if the union is empty").  Neighbour sets are
    sets: a column stored twice in a row counts once.
    """
    if adjacency_a.shape != adjacency_b.shape:
        raise ValueError(
            f"adjacency shapes differ: {adjacency_a.shape} vs {adjacency_b.shape}"
        )
    a, b = packed_sets(adjacency_a), packed_sets(adjacency_b)
    return row_jaccard(a.intersection_sizes(b), a.row_sizes(), b.row_sizes())


def metapath_similarity_scores(adjacencies: list[sp.csr_matrix]) -> np.ndarray:
    """Per-node, per-meta-path normalised similarity ``Ĵ`` (Eq. 6).

    Each adjacency's packed words are built at most once (and shared with
    the coverage kernels), row sizes are counted once per meta-path, and
    every unordered pair is intersected once — ``J`` is symmetric, so the
    pair's similarity feeds both columns.

    Parameters
    ----------
    adjacencies:
        Boolean meta-path adjacency matrices that share the same row space
        (the target-type nodes) and the same column space (the source type).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_target_nodes, num_metapaths)`` where entry
        ``(v, i)`` is the average Jaccard similarity of node ``v``'s
        neighbourhood under meta-path ``i`` against all other meta-paths.
        With a single meta-path the similarity is defined as zero (there is
        nothing to be redundant with).
    """
    num_paths = len(adjacencies)
    if num_paths == 0:
        raise ValueError("at least one meta-path adjacency is required")
    num_nodes = adjacencies[0].shape[0]
    if num_paths == 1:
        return np.zeros((num_nodes, 1), dtype=np.float64)
    for adjacency in adjacencies[1:]:
        if adjacency.shape != adjacencies[0].shape:
            raise ValueError(
                f"adjacency shapes differ: {adjacencies[0].shape} vs {adjacency.shape}"
            )
    packed = [packed_sets(adjacency) for adjacency in adjacencies]
    sizes = [words.row_sizes() for words in packed]
    scores = np.zeros((num_nodes, num_paths), dtype=np.float64)
    for i in range(num_paths):
        for j in range(i + 1, num_paths):
            similarity = row_jaccard(
                packed[i].intersection_sizes(packed[j]), sizes[i], sizes[j]
            )
            scores[:, i] += similarity
            scores[:, j] += similarity
    scores /= num_paths - 1
    return scores
