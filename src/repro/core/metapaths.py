"""General meta-path generation (Section IV-A, Eq. 1).

Instead of relying on expert-defined meta-paths (as HAN does), FreeHGC
enumerates *all* meta-paths up to a maximum hop count and composes their
adjacency matrices from the row-normalised per-hop adjacencies:

    Â_{o_t, ..., o_s} = Â_{o_t, o_1} Â_{o_1, o_2} ... Â_{o_{k-1}, o_s}     (Eq. 1)

This module provides the :class:`MetaPath` value object, enumeration over a
schema's type-connectivity graph, and adjacency composition for a concrete
:class:`~repro.hetero.graph.HeteroGraph`.  The same machinery feeds the HGNN
evaluation models (pre-computed meta-path features) and every stage of the
condensation algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from repro.errors import SchemaError
from repro.hetero.graph import HeteroGraph
from repro.hetero.schema import HeteroSchema
from repro.hetero.sparse import boolean_csr, canonical_pattern, row_normalize

__all__ = ["MetaPath", "enumerate_metapaths", "metapath_adjacency", "metapaths_to_type"]


@dataclass(frozen=True)
class MetaPath:
    """A meta-path as an ordered sequence of node types.

    ``node_types[0]`` is the anchor (usually the target type) and
    ``node_types[-1]`` is the source type whose information flows back to the
    anchor, matching the paper's ``o_t ← ... ← o_s`` notation.
    """

    node_types: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.node_types) < 2:
            raise SchemaError("a meta-path needs at least two node types")

    @property
    def length(self) -> int:
        """Number of hops."""
        return len(self.node_types) - 1

    @property
    def start(self) -> str:
        """Anchor node type."""
        return self.node_types[0]

    @property
    def end(self) -> str:
        """Source node type at the far end of the path."""
        return self.node_types[-1]

    @property
    def abbreviation(self) -> str:
        """Compact name built from type initials, e.g. ``PAP``."""
        return "".join(t[0].upper() for t in self.node_types)

    def __str__(self) -> str:
        return "-".join(self.node_types)

    def hops(self) -> list[tuple[str, str]]:
        """Consecutive ``(src, dst)`` type pairs along the path."""
        return list(zip(self.node_types[:-1], self.node_types[1:]))


def _type_neighbors(schema: HeteroSchema) -> dict[str, tuple[str, ...]]:
    """Undirected type-level connectivity derived from the schema relations."""
    return {node_type: schema.neighbor_types(node_type) for node_type in schema.node_types}


def enumerate_metapaths(
    schema: HeteroSchema,
    start_type: str,
    max_hops: int,
    *,
    allow_revisit: bool = True,
    max_paths: int = 64,
) -> list[MetaPath]:
    """Enumerate meta-paths anchored at ``start_type`` with up to ``max_hops`` hops.

    Parameters
    ----------
    schema:
        Schema whose type-connectivity graph is walked.
    start_type:
        Anchor node type (the paper anchors at the target type).
    max_hops:
        Maximum number of hops (``K`` in the paper; Table of hyper-parameters
        uses K between 1 and 5 depending on dataset).
    allow_revisit:
        Whether a path may revisit a node type (needed for the classic
        ``PAP`` / ``PSP`` patterns); self-loops within a single hop are
        allowed only when the schema declares a same-type relation.
    max_paths:
        Safety cap on the number of returned paths (schemas such as Freebase
        otherwise explode combinatorially).
    """
    if start_type not in schema.node_types:
        raise SchemaError(f"unknown start type {start_type!r}")
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    neighbors = _type_neighbors(schema)
    self_loop_types = {
        rel.src for rel in schema.relations if rel.src == rel.dst
    }

    results: list[MetaPath] = []
    frontier: list[tuple[str, ...]] = [(start_type,)]
    for _hop in range(max_hops):
        next_frontier: list[tuple[str, ...]] = []
        for path in frontier:
            current = path[-1]
            candidates = list(neighbors[current])
            if current in self_loop_types:
                candidates.append(current)
            for nxt in candidates:
                if not allow_revisit and nxt in path:
                    continue
                extended = path + (nxt,)
                results.append(MetaPath(extended))
                next_frontier.append(extended)
                if len(results) >= max_paths:
                    return results
        frontier = next_frontier
    return results


def metapaths_to_type(
    schema: HeteroSchema,
    start_type: str,
    end_type: str,
    max_hops: int,
    *,
    max_paths: int = 64,
) -> list[MetaPath]:
    """Meta-paths anchored at ``start_type`` that terminate at ``end_type``.

    Used by the neighbour-influence-maximisation stage, which scores the
    nodes of one *father* type through every meta-path that reaches it.
    """
    return [
        path
        for path in enumerate_metapaths(schema, start_type, max_hops, max_paths=max_paths)
        if path.end == end_type
    ]


def metapath_adjacency(
    graph: HeteroGraph, metapath: MetaPath, *, normalize: bool = True
) -> sp.csr_matrix:
    """Compose the adjacency matrix of ``metapath`` on ``graph`` (Eq. 1).

    Parameters
    ----------
    graph:
        Graph providing the per-relation adjacency matrices.
    metapath:
        The meta-path whose hops are composed.
    normalize:
        If True each hop is row-normalised (the form used for feature
        propagation); if False the boolean reachability product is returned
        (the form used for receptive fields and Jaccard similarity).
    """
    result: sp.csr_matrix | None = None
    for src, dst in metapath.hops():
        hop = graph.typed_adjacency(src, dst)
        hop = row_normalize(hop) if normalize else boolean_csr(hop)
        result = hop if result is None else (result @ hop).tocsr()
    assert result is not None
    if not normalize:
        # Canonicalise the product once at build time (sparse matmul output
        # has unsorted indices): the coverage kernels, the Jaccard terms
        # and the streaming row-diff all want canonical CSR, and doing it
        # here means none of them pays for a private sorted copy.
        result = canonical_pattern(result)
    return result
