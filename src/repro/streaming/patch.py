"""Row-level patching of composed meta-path adjacencies.

A graph delta usually changes the receptive fields of a handful of target
rows, yet re-composing a k-hop meta-path adjacency from scratch costs a full
chain of sparse matrix products plus a canonicalising sort.  This module
recomputes **only the dirty rows** — the rows whose receptive field can have
changed — and splices them into the previously composed matrix:

* :func:`compose_rows` runs the same boolean hop composition as
  :func:`~repro.core.metapaths.metapath_adjacency` restricted to a row
  subset (rows of a product equal the product of the row slice, so the
  patched pattern is *identical* to a full re-composition);
* :func:`replace_rows` performs vectorized CSR row surgery;
* :func:`patched_packed` reuses the previous bit-packed words, re-packing
  only the dirty rows, and pre-attaches the result to the new matrix so the
  coverage kernels never repack from scratch.

Dirty rows are over-approximated by :func:`propagate_dirty`: the changed
node sets of a hop are walked back to the anchor type through the union of
the pre- and post-delta hop adjacencies, so every row that gained or lost a
walk through a changed edge is marked.  Over-approximation is safe (a clean
row recomputes to its identical pattern); under-approximation would break
byte-identity, which the property suite guards.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.coverage_kernels import PackedAdjacency
from repro.core.metapaths import MetaPath
from repro.hetero.graph import HeteroGraph
from repro.hetero.sparse import boolean_csr, canonical_pattern

__all__ = [
    "compose_rows",
    "mismatched_row_positions",
    "replace_rows",
    "shrink_to_changed_rows",
    "patched_packed",
    "propagate_dirty",
]


def compose_rows(
    graph: HeteroGraph,
    metapath: MetaPath,
    rows: np.ndarray,
    hop_cache: dict[tuple[str, str], sp.csr_matrix] | None = None,
) -> sp.csr_matrix:
    """Rows ``rows`` of the boolean composed adjacency of ``metapath``.

    Pattern-identical to ``metapath_adjacency(graph, metapath,
    normalize=False)[rows]``: boolean hops, product, canonicalised, all
    stored values 1.0.
    """
    block: sp.csr_matrix | None = None
    for src, dst in metapath.hops():
        hop = None if hop_cache is None else hop_cache.get((src, dst))
        if hop is None:
            hop = boolean_csr(graph.typed_adjacency(src, dst))
            if hop_cache is not None:
                hop_cache[(src, dst)] = hop
        block = hop[rows] if block is None else (block @ hop).tocsr()
    assert block is not None
    return canonical_pattern(block)


def mismatched_row_positions(
    a: sp.csr_matrix, rows_a: np.ndarray, b: sp.csr_matrix, rows_b: np.ndarray
) -> np.ndarray:
    """Positions ``p`` where row ``rows_a[p]`` of ``a`` and row ``rows_b[p]``
    of ``b`` have different sparsity patterns.

    The single row-pattern-diff kernel behind both
    :func:`~repro.streaming.warmstart.changed_rows` (whole-matrix diff) and
    :func:`shrink_to_changed_rows` (patch narrowing): first compare row
    lengths, then gather the equal-length segments with the repeat/cumsum
    multi-slice trick and compare element-wise.  Both matrices must have
    canonical (sorted, duplicate-free) indices.
    """
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    len_a = (a.indptr[rows_a + 1] - a.indptr[rows_a]).astype(np.int64)
    len_b = (b.indptr[rows_b + 1] - b.indptr[rows_b]).astype(np.int64)
    mismatch = len_a != len_b
    same = np.flatnonzero(~mismatch)
    lengths = len_a[same]
    total = int(lengths.sum())
    if total:
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(lengths) - lengths, lengths
        )
        gathered_a = a.indices[
            np.repeat(a.indptr[rows_a[same]].astype(np.int64), lengths) + offsets
        ]
        gathered_b = b.indices[
            np.repeat(b.indptr[rows_b[same]].astype(np.int64), lengths) + offsets
        ]
        unequal = gathered_a != gathered_b
        if unequal.any():
            row_of = np.repeat(np.arange(same.size, dtype=np.int64), lengths)
            mismatch[same[np.unique(row_of[unequal])]] = True
    return np.flatnonzero(mismatch)


def shrink_to_changed_rows(
    old: sp.csr_matrix, rows: np.ndarray, block: sp.csr_matrix
) -> tuple[np.ndarray, sp.csr_matrix]:
    """Drop the rows of ``block`` whose pattern matches ``old``'s rows.

    Dirty-row propagation over-approximates: a removed hop edge often
    leaves a composed receptive field unchanged (other walks still connect
    the same endpoints).  Narrowing the patch to the *truly* changed rows
    keeps the selection memos' own row-diffs small — and when nothing
    actually changed, the caller can keep the old matrix **object**, which
    lets every downstream identity-keyed memo keep hitting.
    """
    changed = mismatched_row_positions(
        old, rows, block, np.arange(np.asarray(rows).size, dtype=np.int64)
    )
    return np.asarray(rows, dtype=np.int64)[changed], block[changed]


def replace_rows(
    old: sp.csr_matrix, rows: np.ndarray, block: sp.csr_matrix
) -> sp.csr_matrix:
    """A new CSR equal to ``old`` with ``rows`` replaced by ``block``'s rows.

    Both inputs must be canonical; the result is canonical (each row is
    copied verbatim from a canonical source).  Runs in O(nnz) with two
    vectorized scatters — no sort.  All-ones data (the boolean adjacencies
    this is used on) skips the value scatters entirely.
    """
    n_rows = old.shape[0]
    rows = np.asarray(rows, dtype=np.int64)
    counts = np.diff(old.indptr).astype(np.int64)
    new_counts = counts.copy()
    new_counts[rows] = np.diff(block.indptr).astype(np.int64)
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(new_counts, dtype=np.int64)]
    )
    total = int(indptr[-1])
    indices = np.empty(total, dtype=np.int64)
    all_ones = (old.nnz == 0 or bool((old.data == 1.0).all())) and (
        block.nnz == 0 or bool((block.data == 1.0).all())
    )
    data = None if all_ones else np.empty(total, dtype=old.data.dtype)

    keep_row = np.ones(n_rows, dtype=bool)
    keep_row[rows] = False
    entry_rows = np.repeat(np.arange(n_rows, dtype=np.int64), counts)
    keep_entry = keep_row[entry_rows]
    within = np.arange(old.nnz, dtype=np.int64) - np.repeat(
        old.indptr[:-1].astype(np.int64), counts
    )
    dest = indptr[entry_rows] + within
    indices[dest[keep_entry]] = old.indices[keep_entry]
    if data is not None:
        data[dest[keep_entry]] = old.data[keep_entry]

    block_counts = np.diff(block.indptr).astype(np.int64)
    block_rows = np.repeat(rows, block_counts)
    block_within = np.arange(block.nnz, dtype=np.int64) - np.repeat(
        block.indptr[:-1].astype(np.int64), block_counts
    )
    block_dest = indptr[block_rows] + block_within
    indices[block_dest] = block.indices
    if data is not None:
        data[block_dest] = block.data

    if data is None:
        data = np.ones(total, dtype=np.float64)
    result = sp.csr_matrix((data, indices, indptr), shape=old.shape)
    result.has_canonical_format = True
    return result


def patched_packed(
    old: sp.csr_matrix, new: sp.csr_matrix, rows: np.ndarray
) -> PackedAdjacency | None:
    """Patch ``old``'s cached packed words for ``new`` and attach them.

    Returns the patched :class:`PackedAdjacency` (also pre-attached to
    ``new`` under the fingerprint-guarded cache attribute) or ``None`` when
    ``old`` carries no packed words or the shapes are incompatible.
    """
    old_packed = getattr(old, "_repro_packed", None)
    if old_packed is None or old.shape != new.shape:
        return None
    words = old_packed.words.copy()
    if rows.size:
        words[rows] = PackedAdjacency.from_csr(new[rows]).words
    return PackedAdjacency(words, new.shape).cache_on(new)


def _rows_reaching(matrix: sp.csr_matrix, columns: np.ndarray) -> np.ndarray:
    """Row ids of ``matrix`` with at least one stored entry in ``columns``."""
    if columns.size == 0:
        return np.empty(0, dtype=np.int64)
    indicator = np.zeros(matrix.shape[1], dtype=np.float64)
    indicator[columns] = 1.0
    return np.flatnonzero(np.asarray(matrix @ indicator).ravel() > 0)


def propagate_dirty(
    metapath: MetaPath,
    changed: dict[frozenset, dict[str, np.ndarray]],
    typed_old: "dict[tuple[str, str], sp.csr_matrix]",
    typed_new: "dict[tuple[str, str], sp.csr_matrix]",
) -> np.ndarray | None:
    """Anchor-type rows whose composed receptive field may have changed.

    ``changed`` maps an (unordered) touched type pair to the changed node
    ids per side type; ``typed_old`` / ``typed_new`` provide the pre- and
    post-delta typed adjacency of every hop the propagation needs (keyed by
    the ordered hop ``(src, dst)``).  Returns ``None`` when no hop of the
    path is touched (the cached adjacency is exactly valid), otherwise the
    sorted dirty row ids (possibly empty).

    A node of the hop's *source* side seeds dirtiness at that level; the
    seed sets are walked back to level 0 through the union of old and new
    hop patterns, so rows that lost *or* gained a walk are both caught.
    """
    hops = metapath.hops()
    touched_levels = [
        level for level, hop in enumerate(hops) if frozenset(hop) in changed
    ]
    if not touched_levels:
        return None
    dirty_parts: list[np.ndarray] = []
    for level in touched_levels:
        src, _dst = hops[level]
        seeds = changed[frozenset(hops[level])].get(src)
        if seeds is None or seeds.size == 0:
            continue
        current = np.asarray(seeds, dtype=np.int64)
        # Walk back through hops level-1 .. 0.
        for back in range(level - 1, -1, -1):
            hop = hops[back]
            reach = _rows_reaching(typed_new[hop], current)
            if frozenset(hop) in changed:
                reach = np.union1d(reach, _rows_reaching(typed_old[hop], current))
            current = reach
            if current.size == 0:
                break
        if current.size:
            dirty_parts.append(current)
    if not dirty_parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(dirty_parts))
