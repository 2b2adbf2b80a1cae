"""Array-backed meta-blocking: the ``vectorized`` backend and its driver.

The reference implementation (``repro.graph.blocking_graph`` +
``repro.graph.weights`` + ``repro.graph.pruning``) materializes a
``dict[(i, j), EdgeStats]`` with a Python-level inner loop per comparison.
This module re-expresses the same pipeline over flat numpy arrays, one
entity-id shard (``repro.graph.sharding``) at a time.  Every built-in
pruning scheme is an :class:`ArrayPruning`, a decision object the driver
runs in four steps and nothing else:

1. :func:`run_shard` enumerates one id range's comparisons from the CSR
   :class:`~repro.graph.entity_index.EntityIndex`, deduplicates them with
   one in-place sort of a composite ``(pair, position)`` key into
   per-edge ``src``/``dst``/``shared``/``arcs_mass``/``entropy_mass``
   arrays, and — for every weighting except EJS — evaluates the weights
   with :func:`compute_edge_weights`, elementwise numpy arithmetic that
   mirrors the reference operation order (CHI_H's from a per-run grid),
   so weights agree bit-for-bit.  The pruning's ``reduce`` then takes
   the shard's partial state and its ``select`` the candidates against
   it; the shard hands over fresh arrays of the candidates' endpoints
   and weights, plus the partial.  Its intermediates are views of the
   plan loop's one :class:`~repro.graph.sharding.ShardWorkspace`;
2. :class:`Collector` folds the partials through ``combine`` in plan
   order and keeps the rest; shards cover ascending ``src`` ranges, so
   concatenating them (:func:`merge_shards`) IS the lexicographic edge
   order of ``BlockingGraph.edges()``;
3. the pruning's ``decide`` runs over the merged candidates against the
   reduced state; EJS, which needs the global degrees, is weighted (and
   reduced, as one shard) over the merged arrays first.

:func:`sharded_metablocking` is that driver.  Who runs the shards is its
only degree of freedom: :func:`vectorized_metablocking` (registered under
``backend="vectorized"``) runs them in this process, one after the other
(:func:`run_in_process`), so the scratch never exceeds the largest shard
and under BLAST pruning neither do the outputs;
``repro.graph.parallel`` hands the same shards to a worker pool.  Because
each edge lives in exactly one shard with all of its block occurrences,
every plan yields the same arrays, and a pruning's shard-local selection
must be exact, not approximate: it may drop only edges its decision drops
too (BLAST's argument sits beside :class:`_BlastDecision`).

Inputs the arrays cannot express (custom weighting callables,
user-defined or subclassed pruning schemes) are delegated to
:func:`repro.graph.metablocking.reference_metablocking`, so the result is
equivalent for *every* input — the reference path stays the oracle, the
arrays are just faster.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import KeyEntropyFn
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
    ShardableIndex,
    ShardEdges,
    ShardWorkspace,
    default_plan,
    shard_edge_arrays,
)
from repro.graph.weights import WeightingScheme
from repro.utils.arrays import stable_sort

__all__ = [
    "ArrayBlockingGraph",
    "ArrayPruning",
    "array_pruning",
    "blast_retain_mask",
    "compute_edge_weights",
    "merge_shards",
    "node_maxima",
    "prune_mask",
    "sharded_metablocking",
    "supports_pruning",
    "vectorized_metablocking",
]

#: Relative tolerance of threshold comparisons — must match
#: :func:`repro.graph.pruning._clears`.
_CLEARS_TOL = 1e-9


class ArrayBlockingGraph:
    """The blocking graph as parallel numpy arrays, merged from shards.

    Edge ``e`` is ``(src[e], dst[e])`` with ``src < dst``; edges are sorted
    lexicographically, matching the deterministic iteration order of the
    reference :class:`~repro.graph.blocking_graph.BlockingGraph`.  Per-node
    quantities (``node_blocks``, ``degrees``) are dense arrays indexed by
    profile id.

    Built from a collection it holds the full output of the default
    plan's shards — shared-block counts and both float masses, what tests
    and probes inspect.  The driver instead wraps whatever columns its own
    shards kept (:meth:`of_merged`); the others read ``None``.
    """

    def __init__(
        self,
        collection: BlockCollection,
        key_entropy: KeyEntropyFn | None = None,
    ) -> None:
        index = collection.entity_index
        state = SharedState(
            index=index.shardable,
            block_entropies=index.block_entropies(key_entropy),
            need_arcs=True,
        )
        collector = Collector()
        run_in_process(state, default_plan(state.index), collector)
        self._hold(index, collector.merge()[0])

    @classmethod
    def of_merged(
        cls, index: EntityIndex, edges: ShardEdges
    ) -> "ArrayBlockingGraph":
        """Wrap already-merged shard arrays of *index*'s collection."""
        graph = cls.__new__(cls)
        graph._hold(index, edges)
        return graph

    def _hold(self, index: EntityIndex, edges: ShardEdges) -> None:
        self.num_blocks = index.num_blocks
        self.node_blocks = index.node_block_counts
        self.num_nodes = index.num_indexed_profiles
        self.src, self.dst, self.shared = edges.src, edges.dst, edges.shared
        #: Per-edge ``sum over shared blocks of 1/||b||``.
        self.arcs_mass = edges.arcs_mass
        #: Per-edge summed entropy of the shared blocking keys.
        self.entropy_mass = edges.entropy_mass

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @cached_property
    def degrees(self) -> np.ndarray:
        """|v_i| per profile id (dense), cached after first use."""
        num_ids = self.node_blocks.size
        return np.bincount(self.src, minlength=num_ids) + np.bincount(
            self.dst, minlength=num_ids
        )

    def weights(
        self,
        scheme: WeightingScheme = WeightingScheme.CHI_H,
        entropy_boost: bool = False,
    ) -> np.ndarray:
        """Per-edge weights under *scheme*, aligned with the edge arrays."""
        scheme = WeightingScheme(scheme)
        needs_degrees = scheme is WeightingScheme.EJS
        degrees = self.degrees if needs_degrees else None
        return compute_edge_weights(
            scheme,
            shared=self.shared,
            blocks_i=self.node_blocks[self.src],
            blocks_j=self.node_blocks[self.dst],
            num_blocks=self.num_blocks,
            arcs_mass=self.arcs_mass,
            entropy_mass=self.entropy_mass,
            degrees_src=degrees[self.src] if needs_degrees else None,
            degrees_dst=degrees[self.dst] if needs_degrees else None,
            num_edges=self.num_edges if needs_degrees else None,
            entropy_boost=entropy_boost,
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
    chi_grid: tuple[np.ndarray, np.ndarray] | None = None,
    workspace: ShardWorkspace | None = None,
) -> np.ndarray:
    """Edge weights under *scheme* from raw per-edge arrays.

    The single weighting kernel behind both :func:`run_shard` and
    :meth:`ArrayBlockingGraph.weights`.  Every operation is elementwise
    (the EJS degree statistics arrive pre-gathered per edge), so
    evaluating a shard's slice produces bit-identical values to
    evaluating the same rows inside the full arrays — the property the
    plan-independence of the result rests on.  CHI_H gathers the statistic
    from *chi_grid* when given.  The intermediates and the returned weights
    are views of *workspace* (or of a private one).
    """
    scheme = WeightingScheme(scheme)
    size = shared.size
    workspace = workspace or ShardWorkspace()
    (weights,) = workspace.views("weights", size, np.float64)
    if size == 0:
        return weights
    total = num_blocks

    if scheme is WeightingScheme.CBS:
        np.copyto(weights, shared)
    elif scheme is WeightingScheme.ECBS:
        np.multiply(shared, _safe_log(total, blocks_i), out=weights)
        weights *= _safe_log(total, blocks_j)
    elif scheme in (WeightingScheme.JS, WeightingScheme.EJS):
        (union,) = workspace.views("union", size)
        np.add(blocks_i, blocks_j, out=union)
        union -= shared
        np.divide(shared, union, out=weights)
        if scheme is WeightingScheme.EJS:
            if degrees_src is None or degrees_dst is None or num_edges is None:
                raise ValueError("EJS weighting needs global degree statistics")
            weights *= _safe_log(num_edges, degrees_src)
            weights *= _safe_log(num_edges, degrees_dst)
    elif scheme is WeightingScheme.ARCS:
        if arcs_mass is None:
            raise ValueError("ARCS weighting needs the per-edge ARCS mass")
        np.copyto(weights, arcs_mass)
    else:  # CHI_H — one-sided chi-squared x mean entropy.
        if entropy_mass is None:
            raise ValueError("CHI_H weighting needs the per-edge entropy mass")
        if chi_grid is None:
            a, below = _chi_squared(
                shared, blocks_i, blocks_j, total, workspace, weights
            )
        else:  # the same statistic, gathered at each edge's grid cell
            (cell,) = workspace.views("cell", size)
            (a,) = workspace.views("a", size, np.float64)
            np.multiply(shared, chi_grid[0].shape[0], out=cell)
            cell += blocks_i
            cell *= chi_grid[0].shape[0]
            cell += blocks_j
            np.take(chi_grid[0], cell, out=weights, mode="clip")
            below = np.take(chi_grid[1], cell, mode="clip")
            np.copyto(a, shared)
        # chi * (entropy_mass / shared), zero unless shared beats expected.
        weights *= np.divide(entropy_mass, a, out=a)
        np.copyto(weights, 0.0, where=below)

    if entropy_boost and scheme is not WeightingScheme.CHI_H:
        if entropy_mass is None:
            raise ValueError("entropy_boost needs the per-edge entropy mass")
        (boost,) = workspace.views("boost", size, np.float64)
        np.divide(entropy_mass, shared, out=boost)
        weights *= boost
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
    workspace: ShardWorkspace,
    out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pearson's statistic into *out*, cell by cell in the reference
    accumulation order; returns the shared count as float and the mask of
    ``shared <= |B_i| * |B_j| / total`` (cell 1's expected count).  Counts
    are converted to float64 once: exact below 2**53, so every count and
    rounded product equals the integer arithmetic's bit for bit."""
    size = shared.size
    a, r1, c1, r2, c2, expected, diff = workspace.views(
        "a r1 c1 r2 c2 expected diff", size, np.float64
    )
    below, positive = workspace.views("below positive", size, np.bool_)
    np.copyto(a, shared)
    np.copyto(r1, blocks_i)
    np.copyto(c1, blocks_j)
    np.subtract(total, r1, out=r2)
    np.subtract(total, c1, out=c2)
    # The observed counts a, r1 - a, c1 - a and r2 - c1 + a, each rounded
    # as the reference rounds it.
    observed = (
        lambda: np.copyto(diff, a),
        lambda: np.subtract(r1, a, out=diff),
        lambda: np.subtract(c1, a, out=diff),
        lambda: np.add(np.subtract(r2, c1, out=diff), a, out=diff),
    )
    out.fill(0.0)
    for cell, (r, c) in enumerate(((r1, c1), (r1, c2), (r2, c1), (r2, c2))):
        np.multiply(r, c, out=expected)
        expected /= total
        if cell == 0:
            np.less_equal(a, expected, out=below)
        observed[cell]()
        diff -= expected
        diff *= diff
        # A cell with a zero expected count adds nothing (its term is 0).
        np.greater(expected, 0.0, out=positive)
        np.divide(diff, expected, out=diff, where=positive)
        np.add(out, diff, out=out, where=positive)
    return a, below


def _chi_squared_grid(max_blocks: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_chi_squared` and its mask at every ``[shared, |B_i|, |B_j|]``
    up to *max_blocks*, a ``shared`` layer at a time: the same IEEE
    arithmetic on the same inputs as per edge, so every lookup is exact."""
    side = max_blocks + 1
    chi, below = np.empty((side, side**2)), np.empty((side, side**2), np.bool_)
    blocks = np.indices((side, side), dtype=np.int64).reshape(2, -1)
    workspace = ShardWorkspace()
    for shared in range(side):
        layer = np.full(side**2, shared, dtype=np.int64)
        below[shared] = _chi_squared(layer, *blocks, total, workspace, chi[shared])[1]
    return chi.reshape((side,) * 3), below.reshape((side,) * 3)


# --- vectorized pruning: one decision object per built-in scheme -----------


def _clears(weights: np.ndarray, thresholds: np.ndarray | float) -> np.ndarray:
    """Vectorized twin of :func:`repro.graph.pruning._clears`."""
    return weights >= thresholds - _CLEARS_TOL * np.abs(thresholds)


def _sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum (matches Python's ``sum``, not pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def node_maxima(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray, num_ids: int
) -> np.ndarray:
    """Dense ``M_i``: the maximum weight incident to each profile id.

    *src* must be ascending (its side is one reduction per run).  Never
    negative (isolated ids read 0.0).  A maximum is an exact, order-free
    reduction, so maxima taken over disjoint edge subsets combine with
    ``np.maximum`` into exactly the whole-graph array — BLAST's
    ``reduce`` / ``combine``.
    """
    maxima = np.zeros(num_ids, dtype=np.float64)
    heads = np.flatnonzero(np.diff(src, prepend=-1))
    maxima[src[heads]] = np.maximum(np.maximum.reduceat(weights, heads), 0.0)
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
    workspace: ShardWorkspace | None = None,
) -> np.ndarray:
    """BLAST's retention test against the given per-node *maxima*.

    The one definition of the ``(M_i/c + M_j/c)/d`` threshold, BLAST's
    ``select`` (against a shard's own maxima) and ``decide`` (against the
    reduced global ones).  The mask is a view of *workspace* (or of a
    private one).
    """
    size = weights.size
    workspace = workspace or ShardWorkspace()
    threshold, slack = workspace.views("threshold slack", size, np.float64)
    keep, positive = workspace.views("keep positive", size, np.bool_)
    np.divide(np.take(maxima, src, out=threshold, mode="clip"), c, out=threshold)
    np.divide(np.take(maxima, dst, out=slack, mode="clip"), c, out=slack)
    threshold += slack
    threshold /= d
    # _clears(weights, threshold): weights >= threshold - tol * |threshold|.
    np.multiply(np.abs(threshold, out=slack), _CLEARS_TOL, out=slack)
    np.greater_equal(weights, np.subtract(threshold, slack, out=slack), out=keep)
    keep &= np.greater(weights, 0.0, out=positive)
    return keep


class ArrayPruning:
    """A built-in pruning scheme as the shard driver runs it, in four steps:
    ``reduce`` one shard's edges to a partial state; ``combine`` the
    partials in plan order (*acc* is ``None`` at first); ``select`` the
    shard's candidates against its partial (a boolean mask, a view of
    *workspace*, or ``None`` for every edge), dropping only edges the
    decision drops too; ``decide`` the retain-mask over the merged
    candidates against the reduced state.  This base reduces nothing and
    selects every edge: its subclasses decide over the whole merged graph.
    An instance holds its scheme and pickles (:class:`SharedState`).
    """

    def __init__(self, scheme: PruningScheme) -> None:
        self.scheme = scheme

    def reduce(self, src, dst, weights, num_ids):
        return None

    def combine(self, acc, partial):
        return None

    def select(self, src, dst, weights, partial, workspace=None):
        return None

    def decide(self, graph, weights, reduced):
        raise NotImplementedError


class _BlastDecision(ArrayPruning):
    """BLAST: reduce to per-node maxima, select and decide by one test.

    The selection is exact.  A shard's maxima cover a subset of each
    node's edges, so they never exceed the global ones, and
    :func:`blast_retain_mask` is monotone non-decreasing in the maxima for
    positive ``c``/``d`` (division, sum and the ``_clears`` slack each
    are, under round-to-nearest): an edge that fails in its shard fails
    globally.  The max of the shards' maxima is the whole-graph maximum,
    bit for bit, so the decision is the whole-graph test.
    """

    def reduce(self, src, dst, weights, num_ids):
        return node_maxima(src, dst, weights, num_ids)

    def combine(self, acc, partial):
        return partial.copy() if acc is None else np.maximum(acc, partial, out=acc)

    def select(self, src, dst, weights, partial, workspace=None):
        c, d = self.scheme.c, self.scheme.d
        return blast_retain_mask(
            partial, src, dst, weights, c=c, d=d, workspace=workspace
        )

    def decide(self, graph, weights, reduced):
        return self.select(graph.src, graph.dst, weights, reduced)


class _WepDecision(ArrayPruning):
    def decide(self, graph, weights, reduced):
        theta = (
            self.scheme.threshold
            if self.scheme.threshold is not None
            else _sequential_sum(weights) / weights.size
        )
        return _clears(weights, np.float64(theta))


class _WnpDecision(ArrayPruning):
    def decide(self, graph, weights, reduced):
        # The reference accumulates src then dst per edge, in edge order —
        # interleaving plus bincount's sequential loop reproduces that
        # float summation order exactly.
        nodes = np.empty(2 * weights.size, dtype=np.int64)
        nodes[0::2] = graph.src
        nodes[1::2] = graph.dst
        values = np.repeat(weights, 2)
        node_count = graph.node_blocks.size
        sums = np.bincount(nodes, weights=values, minlength=node_count)
        counts = np.bincount(nodes, minlength=node_count)
        thresholds = np.zeros_like(sums)
        np.divide(sums, counts, out=thresholds, where=counts > 0)
        above_i = _clears(weights, thresholds[graph.src])
        above_j = _clears(weights, thresholds[graph.dst])
        return (above_i & above_j) if self.scheme.reciprocal else (above_i | above_j)


def _edge_ranking(graph: ArrayBlockingGraph, weights: np.ndarray) -> np.ndarray:
    """Edge positions by ``(-w, i, j)``: weight descending, then edge
    ascending — the reference's deterministic tie-break.  The graph's
    edges are already in ``(i, j)`` order, so a stable sort by ``-w``
    breaks ties exactly as a three-key lexsort would, at a third of its
    cost."""
    return np.argsort(-weights, kind="stable")


class _CepDecision(ArrayPruning):
    def decide(self, graph, weights, reduced):
        k = self.scheme.k
        if k is None:
            k = max(1, int(graph.node_blocks.sum()) // 2)
        mask = np.zeros(weights.size, dtype=bool)
        mask[_edge_ranking(graph, weights)[:k]] = True
        return mask


class _CnpDecision(ArrayPruning):
    def decide(self, graph, weights, reduced):
        k = self.scheme.k
        if k is None:
            total_assignments = int(graph.node_blocks.sum())
            k = max(1, math.ceil(total_assignments / max(1, graph.num_nodes)))

        num_edges = weights.size
        rank = np.empty(num_edges, dtype=np.int64)
        rank[_edge_ranking(graph, weights)] = np.arange(num_edges, dtype=np.int64)
        # Two incidences per edge, positions [0, E) the src side, sorted by
        # one composite (node, edge rank) key: each node's edges, best first.
        width = max(1, num_edges)
        keys = np.concatenate((graph.src, graph.dst)).astype(np.int64) * width
        keys += np.tile(rank, 2)
        order = stable_sort(keys)
        sorted_nodes = keys // width
        seg_starts = np.flatnonzero(
            np.concatenate(([True], sorted_nodes[1:] != sorted_nodes[:-1]))
        )
        seg_lengths = np.diff(np.append(seg_starts, sorted_nodes.size))
        rank_in_node = np.arange(sorted_nodes.size, dtype=np.int64) - np.repeat(
            seg_starts, seg_lengths
        )
        top = order[rank_in_node < k]

        in_top_i = np.zeros(num_edges, dtype=bool)
        in_top_j = np.zeros(num_edges, dtype=bool)
        in_top_i[top[top < num_edges]] = True
        in_top_j[top[top >= num_edges] - num_edges] = True
        reciprocal = self.scheme.reciprocal
        return (in_top_i & in_top_j) if reciprocal else (in_top_i | in_top_j)


_PRUNE_DISPATCH: dict[type[PruningScheme], type[ArrayPruning]] = {
    BlastPruning: _BlastDecision,
    WeightEdgePruning: _WepDecision,
    WeightNodePruning: _WnpDecision,
    CardinalityEdgePruning: _CepDecision,
    CardinalityNodePruning: _CnpDecision,
}


def supports_pruning(scheme: PruningScheme) -> bool:
    """Whether *scheme* has a vectorized implementation.

    Dispatch is on the exact type: subclasses may override ``prune`` and
    must go through their own (reference) implementation.
    """
    return type(scheme) in _PRUNE_DISPATCH


def array_pruning(scheme: PruningScheme) -> ArrayPruning:
    """*scheme*'s decision object; a ``TypeError`` unless
    :func:`supports_pruning`."""
    decision = _PRUNE_DISPATCH.get(type(scheme))
    if decision is None:
        raise TypeError(
            f"no vectorized pruning for {type(scheme).__name__}; "
            "use the python backend (or supports_pruning to pre-check)"
        )
    return decision(scheme)


def prune_mask(
    scheme: PruningScheme, graph: ArrayBlockingGraph, weights: np.ndarray
) -> np.ndarray:
    """Boolean retain-mask over the graph's edges under *scheme*: the whole
    graph reduced as one shard, then decided (raises as
    :func:`array_pruning`)."""
    pruning = array_pruning(scheme)
    if weights.size == 0:
        return np.zeros(0, dtype=bool)
    reduced = pruning.reduce(graph.src, graph.dst, weights, graph.node_blocks.size)
    return pruning.decide(graph, weights, reduced)


# --- the shard loop: plan -> run_shard per shard -> Collector -> merge ------


@dataclass(frozen=True)
class SharedState:
    """What every shard of one run reads, whoever runs it.

    The CSR index and the dense per-node/per-block arrays are identical
    for every shard; a worker pool ships them ONCE per worker (see
    ``repro.graph.parallel``) while the per-shard payload is just an
    ``(lo, hi)`` id range.  ``scheme`` is the weighting the shard
    evaluates (its string value, not the enum member) or ``None`` when the
    shard hands over its full edge arrays: to be weighted after the merge
    (EJS, which needs global degrees) or held as they are
    (:class:`ArrayBlockingGraph`).  ``chi_grid`` is CHI_H's statistic per
    run (:func:`_chi_squared_grid`) or ``None``.  ``pruning``, set with
    ``scheme``, reduces and selects each shard (:func:`run_shard`).
    """

    index: ShardableIndex
    block_entropies: np.ndarray | None
    need_arcs: bool
    scheme: str | None = None
    entropy_boost: bool = False
    node_block_counts: np.ndarray | None = None
    num_blocks: int = 0
    chi_grid: tuple[np.ndarray, np.ndarray] | None = None
    pruning: ArrayPruning | None = None


#: One shard's result: edges, weights if the shard took them, and the
#: pruning's partial state (``None`` when it reduces nothing).
ShardResult = tuple[ShardEdges, "np.ndarray | None", object]


def run_shard(
    state: SharedState, lo: int, hi: int, workspace: ShardWorkspace | None = None
) -> ShardResult:
    """Shard body: one id range's edges, handed over as slim as pruning allows.

    What comes back depends on what is still read after the shard:

    * weights not evaluated here (``state.scheme is None``) — the full
      edge arrays;
    * weights evaluated here — endpoints and weights only (every pruning
      reads nothing else) of the edges ``state.pruning`` selects against
      the partial state it reduces from this shard, plus that partial.

    Every intermediate lives in *workspace*; what is returned is fresh.
    """
    workspace = workspace or ShardWorkspace()
    edges = shard_edge_arrays(
        state.index,
        lo,
        hi,
        block_entropies=state.block_entropies,
        need_arcs=state.need_arcs,
        workspace=workspace,
    )
    if state.scheme is None:
        return edges.copy(), None, None
    src, dst = edges.src, edges.dst
    # |B_i| and |B_j| per edge, in the spent per-pair buffers.
    blocks_i, blocks_j, _ = workspace.views("src dst dst_slot", src.size)
    np.take(state.node_block_counts, src, out=blocks_i, mode="clip")
    np.take(state.node_block_counts, dst, out=blocks_j, mode="clip")
    weights = compute_edge_weights(
        WeightingScheme(state.scheme),
        shared=edges.shared,
        blocks_i=blocks_i,
        blocks_j=blocks_j,
        num_blocks=state.num_blocks,
        arcs_mass=edges.arcs_mass,
        entropy_mass=edges.entropy_mass,
        entropy_boost=state.entropy_boost,
        chi_grid=state.chi_grid,
        workspace=workspace,
    )
    partial = state.pruning.reduce(src, dst, weights, state.index.num_ids)
    keep = state.pruning.select(src, dst, weights, partial, workspace)
    if keep is None:
        return ShardEdges(src.copy(), dst.copy(), None), weights.copy(), partial
    # Boolean indexing copies: the candidates leave the workspace.
    return ShardEdges(src[keep], dst[keep], None), weights[keep], partial


def merge_shards(shards: list[ShardEdges]) -> ShardEdges:
    """Concatenate per-shard edge arrays into the global edge arrays.

    Shards cover ascending ``src`` ranges and each shard is sorted
    lexicographically, so plain concatenation in plan order yields the
    globally sorted, duplicate-free edge list — the same arrays under
    every plan, whatever edges a pruning's ``select`` dropped (each edge's
    masses were accumulated whole in its one shard).  Fields the shards
    left out (``shared`` and the masses on weighted results) stay ``None``.
    """
    if not shards:
        empty_i = np.zeros(0, dtype=np.int64)
        return ShardEdges(src=empty_i, dst=empty_i.copy(), shared=empty_i.copy())
    columns = {name: [vars(s)[name] for s in shards] for name in vars(shards[0])}
    return ShardEdges(
        **{k: None if a[0] is None else np.concatenate(a) for k, a in columns.items()}
    )


def _validate_plan(plan: list[tuple[int, int]], num_ids: int) -> None:
    """Reject shard plans that would silently corrupt the merge.

    Merging is plain concatenation, so a plan must tile ``[0, num_ids)``
    contiguously: an overlap would duplicate edges, a gap would drop
    them — both yield a plausible-looking wrong result rather than a
    crash.  Empty ranges (``lo == hi``) are fine.
    """
    if num_ids == 0:
        return
    if not plan:
        raise ValueError("shard_plan must cover the entity-id space")
    cursor = 0
    for lo, hi in plan:
        if lo != cursor or hi < lo:
            raise ValueError(
                f"shard_plan must tile [0, {num_ids}) contiguously; "
                f"range ({lo}, {hi}) breaks at position {cursor}"
            )
        cursor = hi
    if cursor != num_ids:
        raise ValueError(
            f"shard_plan must tile [0, {num_ids}) contiguously; "
            f"coverage stops at {cursor}"
        )


class Collector:
    """Where shard results land, keyed by their position in plan order.

    Keeps a shard's edges and weights and folds its partial state into
    ``reduced`` through *pruning*'s ``combine`` once every earlier position
    is in: in plan order whoever finishes first, and beside the candidates
    only the reduced state (and early partials) outlive a shard.
    ``reduced`` stays ``None`` if the pruning reduces nothing, or is none.
    """

    def __init__(self, pruning: ArrayPruning | None = None) -> None:
        self.pruning = pruning
        self.shards: dict[int, tuple[ShardEdges, np.ndarray | None]] = {}
        self.early: dict[int, object] = {}
        self.folded = 0
        self.reduced: object = None

    def add(self, position: int, result: ShardResult) -> None:
        edges, weights, partial = result
        self.shards[position] = (edges, weights)
        if self.pruning is None:
            return
        self.early[position] = partial
        while self.folded in self.early:
            partial = self.early.pop(self.folded)
            self.reduced = self.pruning.combine(self.reduced, partial)
            self.folded += 1

    def merge(self) -> tuple[ShardEdges, np.ndarray | None]:
        """The merged edges, and the merged weights if the shards took any.

        Every plan position must have been added, whoever ran it.
        """
        results = [self.shards[position] for position in range(len(self.shards))]
        edges = merge_shards([edges for edges, _ in results])
        if results[0][1] is None:
            return edges, None
        return edges, np.concatenate([weights for _, weights in results])


def run_in_process(
    state: SharedState, plan: list[tuple[int, int]], collector: Collector
) -> None:
    """Run every shard of *plan* here, one at a time, into *collector*.

    The ``vectorized`` backend's runner: one workspace, sized by the
    plan's largest shard, holds every shard's intermediates in turn; only
    what the collector keeps survives.
    """
    workspace = ShardWorkspace.for_plan(state.index, plan)
    for position, (lo, hi) in enumerate(plan):
        collector.add(position, run_shard(state, lo, hi, workspace))


def fold_shards(state: SharedState, plan: list[tuple[int, int]]) -> ShardResult:
    """Consecutive shards run here and folded into the merged edges, weights
    and reduced state a collector would hold (a pool task, or its fallback)."""
    collector = Collector(state.pruning)
    run_in_process(state, plan, collector)
    return (*collector.merge(), collector.reduced)


#: Who runs the shards of a plan: fills *collector* at every position.
ShardRunner = Callable[[SharedState, list[tuple[int, int]], Collector], None]


def sharded_metablocking(
    collection: BlockCollection,
    *,
    weighting,
    pruning: PruningScheme,
    entropy_boost: bool,
    key_entropy: KeyEntropyFn | None,
    run_shards: ShardRunner = run_in_process,
    num_shards: int = 1,
    shard_size: int | None = None,
    shard_plan: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """The one array meta-blocking driver: sorted retained edges, ``(E, 2)``.

    Plans (an explicit *shard_plan*, validated; else
    :func:`~repro.graph.sharding.default_plan` with at least *num_shards*
    shards of at most *shard_size* comparisons), lets *run_shards* fill a
    :class:`Collector`, merges, and lets the pruning decide.  The result
    does not depend on the plan or on who ran which shard; combinations
    the arrays cannot express go to the reference path.
    """
    if isinstance(weighting, str):
        weighting = WeightingScheme(weighting)
    if not (isinstance(weighting, WeightingScheme) and supports_pruning(pruning)):
        from repro.graph.metablocking import reference_metablocking

        return reference_metablocking(
            collection,
            weighting=weighting,
            pruning=pruning,
            entropy_boost=entropy_boost,
            key_entropy=key_entropy,
        )
    decision = array_pruning(pruning)
    index = collection.entity_index
    slim = index.shardable
    if shard_plan is not None:
        _validate_plan(shard_plan, slim.num_ids)
        # As in default_plan: an empty id space is one empty shard.
        plan = list(shard_plan) or [(0, 0)]
    else:
        plan = default_plan(slim, num_shards=num_shards, max_pairs=shard_size)

    needs_entropy = weighting is WeightingScheme.CHI_H or entropy_boost
    # EJS mixes global degrees into every edge: weighed after the merge.
    weight_in_shard = weighting is not WeightingScheme.EJS
    # CHI_H reads only (shared, |B_i|, |B_j|): grid them if no bigger than the run.
    side = int(index.node_block_counts.max(initial=0)) + 1
    grid = weighting is WeightingScheme.CHI_H and side**3 <= slim.pair_ptr[-1]
    state = SharedState(
        index=slim,
        block_entropies=index.block_entropies(key_entropy)
        if needs_entropy
        else None,
        need_arcs=weighting is WeightingScheme.ARCS,
        scheme=weighting.value if weight_in_shard else None,
        entropy_boost=entropy_boost,
        node_block_counts=index.node_block_counts if weight_in_shard else None,
        num_blocks=index.num_blocks,
        chi_grid=_chi_squared_grid(side - 1, index.num_blocks) if grid else None,
        pruning=decision if weight_in_shard else None,
    )
    collector = Collector(state.pruning)
    run_shards(state, plan, collector)
    edges, weights = collector.merge()
    graph = ArrayBlockingGraph.of_merged(index, edges)
    reduced = collector.reduced
    if weights is None:  # EJS: weighed, and reduced as one shard, here
        weights = graph.weights(weighting, entropy_boost=entropy_boost)
        reduced = decision.reduce(edges.src, edges.dst, weights, slim.num_ids)
    # A decision reads at least one edge.
    empty = np.zeros(0, dtype=bool)
    mask = decision.decide(graph, weights, reduced) if weights.size else empty
    return np.column_stack((edges.src[mask], edges.dst[mask]))


def vectorized_metablocking(
    collection: BlockCollection,
    *,
    weighting=WeightingScheme.CHI_H,
    pruning: PruningScheme,
    entropy_boost: bool = False,
    key_entropy: KeyEntropyFn | None = None,
) -> np.ndarray:
    """The ``vectorized`` meta-blocking backend: sorted retained edges.

    :func:`sharded_metablocking` over the default plan, every shard run in
    this process — peak memory follows one shard, not ``||B||``.
    Result-equivalent to
    :func:`repro.graph.metablocking.reference_metablocking` for every
    input.
    """
    return sharded_metablocking(
        collection,
        weighting=weighting,
        pruning=pruning,
        entropy_boost=entropy_boost,
        key_entropy=key_entropy,
    )
