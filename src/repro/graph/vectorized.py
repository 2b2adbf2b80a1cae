"""Array-backed meta-blocking: the ``vectorized`` backend.

The reference implementation (``repro.graph.blocking_graph`` +
``repro.graph.weights`` + ``repro.graph.pruning``) materializes a
``dict[(i, j), EdgeStats]`` with a Python-level inner loop per comparison.
This module re-expresses the same pipeline over flat numpy arrays:

1. :class:`ArrayBlockingGraph` lowers a block collection through its CSR
   :class:`~repro.graph.entity_index.EntityIndex`, enumerates every
   comparison into parallel arrays, and deduplicates them with one stable
   sort — yielding per-edge ``src``/``dst``/``shared``/``arcs_mass``/
   ``entropy_mass`` arrays in the exact lexicographic order of
   ``BlockingGraph.edges()``;
2. :meth:`ArrayBlockingGraph.weights` evaluates all six weighting schemes
   (including the ``entropy_boost`` ablation and CHI_H's one-sided
   zeroing) with elementwise numpy arithmetic that mirrors the reference
   operation order, so weights agree bit-for-bit;
3. :func:`prune_mask` vectorizes the five built-in pruning schemes
   (BLAST max-based WNP, WEP, CEP, WNP, CNP) via dense per-node
   scatter/gather and segmented rankings.

:func:`vectorized_metablocking` is the backend entry point registered
under ``backend="vectorized"``; inputs it cannot vectorize (custom
weighting callables, user-defined or subclassed pruning schemes) are
delegated to :func:`repro.graph.metablocking.reference_metablocking`, so
the result is equivalent for *every* input — the reference path stays the
oracle, the arrays are just faster.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import Edge, KeyEntropyFn
from repro.graph.entity_index import EntityIndex
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.sharding import (
    accumulate_arcs_mass,
    accumulate_entropy_mass,
    dedupe_pair_arrays,
)
from repro.graph.weights import WeightingScheme

__all__ = [
    "ArrayBlockingGraph",
    "blast_retain_mask",
    "compute_edge_weights",
    "node_maxima",
    "prune_mask",
    "supports_pruning",
    "vectorized_metablocking",
]

#: Relative tolerance of threshold comparisons — must match
#: :func:`repro.graph.pruning._clears`.
_CLEARS_TOL = 1e-9


class ArrayBlockingGraph:
    """The blocking graph as parallel numpy arrays.

    Edge ``e`` is ``(src[e], dst[e])`` with ``src < dst``; edges are sorted
    lexicographically, matching the deterministic iteration order of the
    reference :class:`~repro.graph.blocking_graph.BlockingGraph`.  Per-node
    quantities (``node_blocks``, ``degrees``) are dense arrays indexed by
    profile id.
    """

    def __init__(
        self,
        collection: BlockCollection,
        key_entropy: KeyEntropyFn | None = None,
    ) -> None:
        index: EntityIndex = collection.entity_index
        self.is_clean_clean = collection.is_clean_clean
        self.num_blocks = index.num_blocks
        self.node_blocks = index.node_block_counts
        self.num_nodes = index.num_indexed_profiles

        src, dst, pair_block = index.enumerate_pairs()
        self._key_entropy = key_entropy
        self._index = index

        if src.size == 0:
            empty_i = np.zeros(0, dtype=np.int64)
            empty_f = np.zeros(0, dtype=np.float64)
            self.src, self.dst, self.shared = empty_i, empty_i, empty_i
            self._arcs_mass = empty_f
            self._entropy_mass = empty_f
            self._pair_block = empty_i
            self._inverse = empty_i
            return

        # One stable sort + inverse mapping (see dedupe_pair_arrays for the
        # bit-level accumulation-order contract).
        self.src, self.dst, self.shared, inverse = dedupe_pair_arrays(src, dst)
        # The float masses are accumulated lazily: CBS/ECBS/JS/EJS without
        # entropy_boost never read them, and the two weighted bincount
        # passes are a measurable slice of the hot path.
        self._arcs_mass: np.ndarray | None = None
        self._entropy_mass: np.ndarray | None = None
        self._pair_block = pair_block
        self._inverse = inverse

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def arcs_mass(self) -> np.ndarray:
        """Per-edge ``sum over shared blocks of 1/||b||`` (lazy)."""
        if self._arcs_mass is None:
            self._arcs_mass = accumulate_arcs_mass(
                self._index.block_comparisons,
                self.num_blocks,
                self._inverse,
                self._pair_block,
                self.num_edges,
            )
        return self._arcs_mass

    @property
    def entropy_mass(self) -> np.ndarray:
        """Per-edge summed entropy of the shared blocking keys (lazy)."""
        if self._entropy_mass is None:
            self._entropy_mass = accumulate_entropy_mass(
                self._index.block_entropies(self._key_entropy),
                self._inverse,
                self._pair_block,
                self.num_edges,
            )
        return self._entropy_mass

    @cached_property
    def degrees(self) -> np.ndarray:
        """|v_i| per profile id (dense), cached after first use."""
        return edge_degrees(self.src, self.dst, self.node_blocks.size)

    def edge_list(self) -> list[Edge]:
        """Edges as Python ``(i, j)`` tuples, lexicographically sorted."""
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def weights(
        self,
        scheme: WeightingScheme = WeightingScheme.CHI_H,
        entropy_boost: bool = False,
    ) -> np.ndarray:
        """Per-edge weights under *scheme*, aligned with the edge arrays."""
        scheme = WeightingScheme(scheme)
        if self.shared.size == 0:
            return np.zeros(0, dtype=np.float64)
        # The lazy mass/degree properties are only touched when the scheme
        # actually reads them — CBS/ECBS/JS stay bincount-free.
        needs_entropy = scheme is WeightingScheme.CHI_H or entropy_boost
        needs_degrees = scheme is WeightingScheme.EJS
        degrees = self.degrees if needs_degrees else None
        return compute_edge_weights(
            scheme,
            shared=self.shared,
            blocks_i=self.node_blocks[self.src],
            blocks_j=self.node_blocks[self.dst],
            num_blocks=self.num_blocks,
            arcs_mass=self.arcs_mass
            if scheme is WeightingScheme.ARCS
            else None,
            entropy_mass=self.entropy_mass if needs_entropy else None,
            degrees_src=degrees[self.src] if needs_degrees else None,
            degrees_dst=degrees[self.dst] if needs_degrees else None,
            num_edges=self.num_edges if needs_degrees else None,
            entropy_boost=entropy_boost,
        )


def edge_degrees(src: np.ndarray, dst: np.ndarray, num_ids: int) -> np.ndarray:
    """|v_i| per profile id (dense) from deduplicated edge endpoints.

    Shared by the serial graph's :attr:`ArrayBlockingGraph.degrees` and
    the parallel backend's post-merge EJS path — one definition, so the
    backends cannot drift.
    """
    return np.bincount(src, minlength=num_ids) + np.bincount(
        dst, minlength=num_ids
    )


def compute_edge_weights(
    scheme: WeightingScheme,
    *,
    shared: np.ndarray,
    blocks_i: np.ndarray,
    blocks_j: np.ndarray,
    num_blocks: int,
    arcs_mass: np.ndarray | None = None,
    entropy_mass: np.ndarray | None = None,
    degrees_src: np.ndarray | None = None,
    degrees_dst: np.ndarray | None = None,
    num_edges: int | None = None,
    entropy_boost: bool = False,
) -> np.ndarray:
    """Edge weights under *scheme* from raw per-edge arrays.

    The single weighting kernel behind both :meth:`ArrayBlockingGraph.weights`
    and the per-shard workers of the ``parallel`` backend.  Every operation
    is elementwise (the EJS degree statistics arrive pre-gathered per edge),
    so evaluating a shard's slice produces bit-identical values to
    evaluating the same rows inside the full arrays — the property the
    sharded backend's equivalence contract rests on.
    """
    scheme = WeightingScheme(scheme)
    if shared.size == 0:
        return np.zeros(0, dtype=np.float64)
    total = num_blocks

    if scheme is WeightingScheme.CBS:
        weights = shared.astype(np.float64)
    elif scheme is WeightingScheme.ECBS:
        weights = (
            shared
            * _safe_log(total, blocks_i)
            * _safe_log(total, blocks_j)
        )
    elif scheme is WeightingScheme.JS:
        weights = shared / (blocks_i + blocks_j - shared)
    elif scheme is WeightingScheme.EJS:
        if degrees_src is None or degrees_dst is None or num_edges is None:
            raise ValueError("EJS weighting needs global degree statistics")
        js = shared / (blocks_i + blocks_j - shared)
        weights = (
            js
            * _safe_log(num_edges, degrees_src)
            * _safe_log(num_edges, degrees_dst)
        )
    elif scheme is WeightingScheme.ARCS:
        if arcs_mass is None:
            raise ValueError("ARCS weighting needs the per-edge ARCS mass")
        weights = arcs_mass.copy()
    else:  # CHI_H — one-sided chi-squared x mean entropy.
        if entropy_mass is None:
            raise ValueError("CHI_H weighting needs the per-edge entropy mass")
        expected_shared = blocks_i * blocks_j / total
        chi = _chi_squared(shared, blocks_i, blocks_j, total)
        weights = np.where(
            shared <= expected_shared,
            0.0,
            chi * (entropy_mass / shared),
        )

    if entropy_boost and scheme is not WeightingScheme.CHI_H:
        if entropy_mass is None:
            raise ValueError("entropy_boost needs the per-edge entropy mass")
        weights = weights * (entropy_mass / shared)
    return weights


def _safe_log(numerator: int, denominators: np.ndarray) -> np.ndarray:
    """``log10(numerator / d)`` clamped at zero, per denominator.

    Evaluated through ``math.log10`` over the (few) distinct denominators
    rather than ``np.log10``: numpy's SIMD log differs from C libm by an
    ulp on some inputs, which would break the bit-level agreement with
    :func:`repro.graph.weights._safe_log`.
    """
    values, inverse = np.unique(denominators, return_inverse=True)
    logs = np.empty(values.size, dtype=np.float64)
    for position, value in enumerate(values.tolist()):
        ratio = numerator / value
        logs[position] = math.log10(ratio) if ratio > 1.0 else 0.0
    return logs[inverse]


def _chi_squared(
    shared: np.ndarray,
    blocks_i: np.ndarray,
    blocks_j: np.ndarray,
    total: int,
) -> np.ndarray:
    """Pearson's statistic, cell by cell in the reference accumulation order."""
    observed = (
        shared,
        blocks_i - shared,
        blocks_j - shared,
        total - blocks_i - blocks_j + shared,
    )
    row = (blocks_i, blocks_i, total - blocks_i, total - blocks_i)
    col = (blocks_j, total - blocks_j, blocks_j, total - blocks_j)
    statistic = np.zeros(shared.shape, dtype=np.float64)
    for obs, r, c in zip(observed, row, col):
        expected = r * c / total
        diff = obs - expected
        term = np.zeros_like(statistic)
        np.divide(diff * diff, expected, out=term, where=expected > 0.0)
        statistic = statistic + term
    return statistic


# --- vectorized pruning -----------------------------------------------------


def _clears(weights: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Vectorized twin of :func:`repro.graph.pruning._clears`."""
    return weights >= thresholds - _CLEARS_TOL * np.abs(thresholds)


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum (matches Python's ``sum``, not pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _node_count(graph: ArrayBlockingGraph) -> int:
    return int(graph.node_blocks.size)


def node_maxima(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, num_ids: int
) -> np.ndarray:
    """Dense ``M_i``: the maximum weight incident to each profile id.

    Never negative (isolated ids read 0.0).  A maximum is an exact,
    order-free reduction, so maxima taken over disjoint edge subsets
    combine with ``np.maximum`` into exactly the whole-graph array — what
    lets the ``parallel`` backend take them per shard.
    """
    maxima = np.zeros(num_ids, dtype=np.float64)
    np.maximum.at(maxima, src, weights)
    np.maximum.at(maxima, dst, weights)
    return maxima


def blast_retain_mask(
    maxima: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    weights: np.ndarray,
    *,
    c: float,
    d: float,
) -> np.ndarray:
    """BLAST's retention test against the given per-node *maxima*.

    The one definition of the ``(M_i/c + M_j/c)/d`` threshold: the serial
    mask below applies it to the whole graph, the ``parallel`` backend
    applies it twice — per shard against the shard's local maxima, then in
    the parent against the reduced global ones.  For positive ``c``/``d``
    every step (division, sum, the ``_clears`` slack) is monotone
    non-decreasing in the maxima under round-to-nearest, so an edge that
    fails against maxima no larger than the global ones fails globally.
    """
    thresholds = (maxima[src] / c + maxima[dst] / c) / d
    return (weights > 0.0) & _clears(weights, thresholds)


def _blast_mask(
    scheme: BlastPruning, graph: ArrayBlockingGraph, weights: np.ndarray
) -> np.ndarray:
    maxima = node_maxima(graph.src, graph.dst, weights, _node_count(graph))
    return blast_retain_mask(
        maxima, graph.src, graph.dst, weights, c=scheme.c, d=scheme.d
    )


def _wep_mask(
    scheme: WeightEdgePruning, graph: ArrayBlockingGraph, weights: np.ndarray
) -> np.ndarray:
    theta = (
        scheme.threshold
        if scheme.threshold is not None
        else _sequential_sum(weights) / weights.size
    )
    return _clears(weights, np.float64(theta))


def _wnp_mask(
    scheme: WeightNodePruning, graph: ArrayBlockingGraph, weights: np.ndarray
) -> np.ndarray:
    # The reference accumulates src then dst per edge, in edge order —
    # interleaving plus bincount's sequential loop reproduces that float
    # summation order exactly.
    nodes = np.empty(2 * weights.size, dtype=np.int64)
    nodes[0::2] = graph.src
    nodes[1::2] = graph.dst
    values = np.repeat(weights, 2)
    node_count = _node_count(graph)
    sums = np.bincount(nodes, weights=values, minlength=node_count)
    counts = np.bincount(nodes, minlength=node_count)
    thresholds = np.zeros_like(sums)
    np.divide(sums, counts, out=thresholds, where=counts > 0)
    above_i = _clears(weights, thresholds[graph.src])
    above_j = _clears(weights, thresholds[graph.dst])
    return (above_i & above_j) if scheme.reciprocal else (above_i | above_j)


def _cep_mask(
    scheme: CardinalityEdgePruning,
    graph: ArrayBlockingGraph,
    weights: np.ndarray,
) -> np.ndarray:
    k = scheme.k
    if k is None:
        k = max(1, int(graph.node_blocks.sum()) // 2)
    # Rank by weight descending, then edge ascending (lexsort: last key
    # is primary) — the reference's deterministic tie-break.
    order = np.lexsort((graph.dst, graph.src, -weights))
    mask = np.zeros(weights.size, dtype=bool)
    mask[order[:k]] = True
    return mask


def _cnp_mask(
    scheme: CardinalityNodePruning,
    graph: ArrayBlockingGraph,
    weights: np.ndarray,
) -> np.ndarray:
    k = scheme.k
    if k is None:
        total_assignments = int(graph.node_blocks.sum())
        k = max(1, math.ceil(total_assignments / max(1, graph.num_nodes)))

    num_edges = weights.size
    # Two incidences per edge: positions [0, E) are the src side.
    edge_idx = np.concatenate(
        (np.arange(num_edges, dtype=np.int64), np.arange(num_edges, dtype=np.int64))
    )
    nodes = np.concatenate((graph.src, graph.dst))
    order = np.lexsort(
        (graph.dst[edge_idx], graph.src[edge_idx], -weights[edge_idx], nodes)
    )
    sorted_nodes = nodes[order]
    seg_starts = np.flatnonzero(
        np.concatenate(([True], sorted_nodes[1:] != sorted_nodes[:-1]))
    )
    seg_lengths = np.diff(np.append(seg_starts, sorted_nodes.size))
    rank = np.arange(sorted_nodes.size, dtype=np.int64) - np.repeat(
        seg_starts, seg_lengths
    )
    top = order[rank < k]

    in_top_i = np.zeros(num_edges, dtype=bool)
    in_top_j = np.zeros(num_edges, dtype=bool)
    in_top_i[top[top < num_edges]] = True
    in_top_j[top[top >= num_edges] - num_edges] = True
    return (in_top_i & in_top_j) if scheme.reciprocal else (in_top_i | in_top_j)


_PRUNE_DISPATCH = {
    BlastPruning: _blast_mask,
    WeightEdgePruning: _wep_mask,
    WeightNodePruning: _wnp_mask,
    CardinalityEdgePruning: _cep_mask,
    CardinalityNodePruning: _cnp_mask,
}


def supports_pruning(scheme: PruningScheme) -> bool:
    """Whether *scheme* has a vectorized implementation.

    Dispatch is on the exact type: subclasses may override ``prune`` and
    must go through their own (reference) implementation.
    """
    return type(scheme) in _PRUNE_DISPATCH


def prune_mask(
    scheme: PruningScheme, graph: ArrayBlockingGraph, weights: np.ndarray
) -> np.ndarray:
    """Boolean retain-mask over the graph's edges under *scheme*.

    Raises
    ------
    TypeError
        When *scheme* has no vectorized implementation (see
        :func:`supports_pruning`).
    """
    handler = _PRUNE_DISPATCH.get(type(scheme))
    if handler is None:
        raise TypeError(
            f"no vectorized pruning for {type(scheme).__name__}; "
            "use the python backend (or supports_pruning to pre-check)"
        )
    if weights.size == 0:
        return np.zeros(0, dtype=bool)
    return handler(scheme, graph, weights)


def vectorized_metablocking(
    collection: BlockCollection,
    *,
    weighting=WeightingScheme.CHI_H,
    pruning: PruningScheme,
    entropy_boost: bool = False,
    key_entropy: KeyEntropyFn | None = None,
) -> list[Edge]:
    """The ``vectorized`` meta-blocking backend: sorted retained edges.

    Result-equivalent to
    :func:`repro.graph.metablocking.reference_metablocking` for every
    input; combinations without a vectorized implementation (custom
    weighting callables, user pruning schemes) are delegated to it.
    """
    if isinstance(weighting, str):
        weighting = WeightingScheme(weighting)
    if not isinstance(weighting, WeightingScheme) or not supports_pruning(
        pruning
    ):
        from repro.graph.metablocking import reference_metablocking

        return reference_metablocking(
            collection,
            weighting=weighting,
            pruning=pruning,
            entropy_boost=entropy_boost,
            key_entropy=key_entropy,
        )
    graph = ArrayBlockingGraph(collection, key_entropy=key_entropy)
    weights = graph.weights(weighting, entropy_boost=entropy_boost)
    mask = prune_mask(pruning, graph, weights)
    return list(
        zip(graph.src[mask].tolist(), graph.dst[mask].tolist())
    )
