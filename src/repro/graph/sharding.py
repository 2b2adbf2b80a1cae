"""Entity-range sharding of the CSR entity index.

Array meta-blocking (``repro.graph.vectorized``, and
``repro.graph.parallel`` when worker processes run the shards) builds the
blocking graph one contiguous range of the *entity-id space* at a time.
Every comparison ``(src, dst)`` with ``src < dst`` is owned by exactly one
shard — the range containing ``src`` — so each co-occurrence edge, with
*all* of its block occurrences, lands in a single shard.  That
single-owner property is what makes the result independent of the plan:
per-edge float accumulations (ARCS mass, entropy mass) happen in one
shard, in block-major order, and the shards' edge arrays concatenated in
plan order are the one-shard arrays, bit for bit (see DESIGN.md "Parallel
execution & sharding").

The module is deliberately process-friendly: :class:`ShardableIndex` is a
slim picklable view of an :class:`~repro.graph.entity_index.EntityIndex`
(arrays only, no Python block objects or key strings), and every function
here is pure, so workers can run them on a shipped copy of the arrays.

Shard enumeration order
-----------------------
:func:`enumerate_shard_pairs` yields the shard's comparisons in the
``for block: block.iter_pairs()`` order restricted to the shard:
block-major, and within each block the ``itertools.combinations`` order
(dirty) or row-major left x right order (clean-clean).  Restriction
preserves relative order, and an edge's occurrences all share one shard,
so the per-edge accumulation order — and hence every float rounding — is
the same under every plan, the one-shard plan included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.graph.entity_index import pack_pairs, unpack_pairs

__all__ = [
    "ShardEdges",
    "ShardableIndex",
    "accumulate_arcs_mass",
    "accumulate_entropy_mass",
    "dedupe_pair_arrays",
    "default_plan",
    "enumerate_shard_pairs",
    "pair_counts_by_entity",
    "plan_shards",
    "shard_edge_arrays",
]


#: Comparisons per shard when the caller names no ``shard_size``: a sort
#: of this many packed keys fits the cache, which one 1.5 M-key argsort
#: does not.
DEFAULT_SHARD_PAIRS = 100_000

#: Most shards the default plan cuts.  Every shard pays a fixed cost in
#: flat slots + ids (the range mask, the dense maxima array), so on huge
#: inputs the cap grows with ``||B||`` instead of the shard count.
MAX_DEFAULT_SHARDS = 512


@dataclass(frozen=True)
class ShardableIndex:
    """Picklable array-only view of an entity index.

    Carries exactly what pair enumeration needs — the CSR block layout —
    plus ``num_ids``, the size of the dense entity-id space the shard
    ranges partition.  Blocking keys (strings) stay behind in the parent
    process; per-block entropies travel separately as a float array.
    """

    is_clean_clean: bool
    block_ptr: np.ndarray
    block_split: np.ndarray
    entity_ids: np.ndarray
    block_comparisons: np.ndarray
    num_ids: int

    @classmethod
    def from_entity_index(cls, index) -> "ShardableIndex":
        return cls(
            is_clean_clean=index.is_clean_clean,
            block_ptr=index.block_ptr,
            block_split=index.block_split,
            entity_ids=index.entity_ids,
            block_comparisons=index.block_comparisons,
            num_ids=int(index.node_block_counts.size),
        )

    @property
    def num_blocks(self) -> int:
        return int(self.block_ptr.size - 1)

    # The flat-axis derivations below are O(total block slots) to build;
    # caching them keeps chunked runs (hundreds of shards against one
    # index) at one pass total instead of one pass per shard.  They are
    # plain ``cached_property`` entries, so a pickled index (shipped once
    # per worker through the pool initializer) carries whatever was
    # already materialized and lazily rebuilds the rest.

    @cached_property
    def block_of_flat(self) -> np.ndarray:
        """Block position of every slot of the flat ``entity_ids`` array."""
        return np.repeat(
            np.arange(self.num_blocks, dtype=np.int64),
            np.diff(self.block_ptr).astype(np.int64),
        )

    @cached_property
    def entity_ids64(self) -> np.ndarray:
        """``entity_ids`` widened once to int64 (pair packing needs it)."""
        return self.entity_ids.astype(np.int64)


@dataclass(frozen=True)
class ShardEdges:
    """One shard's deduplicated edges, sorted lexicographically.

    ``arcs_mass``/``entropy_mass`` are ``None`` unless the shard was built
    with them (they are only accumulated when the weighting needs them).
    ``shared`` is ``None`` only on the slim results a shard hands over
    once its weights are evaluated: pruning reads endpoints and weights
    alone, so the weighting inputs die with the shard.
    """

    src: np.ndarray
    dst: np.ndarray
    shared: np.ndarray | None
    arcs_mass: np.ndarray | None = None
    entropy_mass: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return int(self.src.size)


def _as_shardable(index) -> ShardableIndex:
    if isinstance(index, ShardableIndex):
        return index
    return ShardableIndex.from_entity_index(index)


def pair_counts_by_entity(index) -> np.ndarray:
    """``int64[num_ids]`` — comparisons owned by each entity id as ``src``.

    Clean-clean: a left member of block *b* owns one pair per right member
    of *b*.  Dirty: the member at local position *p* of an *n*-member block
    owns ``n - 1 - p`` pairs (every later member).  The shard planner
    balances shards on these counts without enumerating any pair.
    """
    index = _as_shardable(index)
    n = index.num_ids
    if n == 0 or index.entity_ids.size == 0:
        return np.zeros(n, dtype=np.int64)
    block_of = index.block_of_flat
    ids = index.entity_ids64
    position = np.arange(ids.size, dtype=np.int64)
    ends = index.block_ptr[1:].astype(np.int64)
    if index.is_clean_clean:
        split = index.block_split.astype(np.int64)
        num_right = ends - split
        owned = np.where(position < split[block_of], num_right[block_of], 0)
    else:
        owned = ends[block_of] - position - 1
    # Weighted bincount goes through float64; exact for any count < 2**53.
    return np.bincount(
        ids, weights=owned.astype(np.float64), minlength=n
    ).astype(np.int64)


def plan_shards(
    index,
    *,
    num_shards: int | None = None,
    max_pairs: int | None = None,
) -> list[tuple[int, int]]:
    """Contiguous entity-id ranges ``[(lo, hi), ...]`` covering the id space.

    Boundaries are placed on the cumulative per-entity pair counts.
    *num_shards* asks for that many ranges of roughly equal comparison
    counts (fewer when the id space is smaller or several boundaries
    coincide); *max_pairs* caps the comparisons per shard instead — the
    chunked low-memory mode, where peak per-shard array bytes scale with
    *max_pairs*.  The cap is strict except for single-entity shards
    (ranges never split one id, so an entity owning more than *max_pairs*
    comparisons becomes a shard of its own).  With both given, the cap is
    tightened to ``total / num_shards`` when that is smaller, so at least
    *num_shards* shards come out.  The plan is deterministic for a given
    index and parameters.
    """
    index = _as_shardable(index)
    n = index.num_ids
    if n == 0:
        return []
    counts = pair_counts_by_entity(index)
    total = int(counts.sum())
    shards = 1 if num_shards is None else num_shards
    if shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be positive, got {max_pairs}")
    cumulative = np.cumsum(counts)

    if max_pairs is not None:
        # Greedy strict-cap cuts: each shard is the longest id range whose
        # owned comparisons fit the (possibly num_shards-tightened) cap.
        cap = max_pairs
        if shards > 1 and total > 0:
            cap = min(cap, max(1, -(-total // shards)))
        boundaries = [0]
        while boundaries[-1] < n:
            lo = boundaries[-1]
            base = int(cumulative[lo - 1]) if lo else 0
            hi = int(np.searchsorted(cumulative, base + cap, side="right"))
            boundaries.append(min(max(hi, lo + 1), n))
        return list(zip(boundaries[:-1], boundaries[1:]))

    shards = min(shards, n)
    if shards <= 1:
        return [(0, n)]
    targets = np.arange(1, shards, dtype=np.float64) * (total / shards)
    cuts = np.searchsorted(cumulative, targets, side="left") + 1
    boundaries = np.unique(np.concatenate(([0], cuts, [n])))
    return [
        (int(lo), int(hi))
        for lo, hi in zip(boundaries[:-1], boundaries[1:])
    ]


def default_plan(
    index, *, num_shards: int = 1, max_pairs: int | None = None
) -> list[tuple[int, int]]:
    """The plan of every caller that names none: never empty, never huge.

    *max_pairs* left unset is worked out from the index —
    :data:`DEFAULT_SHARD_PAIRS` comparisons per shard, more once that
    would cut over :data:`MAX_DEFAULT_SHARDS` shards; *num_shards* (one
    per worker) still tightens it, as in :func:`plan_shards`.  An empty id
    space plans one empty shard, so callers never special-case it.
    """
    index = _as_shardable(index)
    if max_pairs is None:
        total = int(index.block_comparisons.sum())
        max_pairs = max(DEFAULT_SHARD_PAIRS, -(-total // MAX_DEFAULT_SHARDS))
    plan = plan_shards(index, num_shards=num_shards, max_pairs=max_pairs)
    return plan or [(0, 0)]


def enumerate_shard_pairs(
    index, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shard's comparisons as ``(src, dst, block)`` int64 arrays.

    Exactly the pairs of ``for block: block.iter_pairs()`` whose ``src``
    falls in ``[lo, hi)``, in the same relative order (``src < dst``:
    global indexing orders E1 before E2, dirty members are sorted).  Work
    and memory are proportional to the shard's own pairs (plus one O(flat)
    range mask), never to the full comparison set.
    """
    index = _as_shardable(index)
    empty = np.zeros(0, dtype=np.int64)
    if index.entity_ids.size == 0 or lo >= hi:
        return empty, empty.copy(), empty.copy()
    ids64 = index.entity_ids64
    in_range = (ids64 >= lo) & (ids64 < hi)
    block_of = index.block_of_flat
    ends = index.block_ptr[1:].astype(np.int64)
    if index.is_clean_clean:
        split = index.block_split.astype(np.int64)
        position = np.arange(ids64.size, dtype=np.int64)
        selected = np.flatnonzero(in_range & (position < split[block_of]))
        selected_block = block_of[selected]
        per_selected = ends[selected_block] - split[selected_block]
    else:
        selected = np.flatnonzero(in_range)
        selected_block = block_of[selected]
        per_selected = ends[selected_block] - selected - 1
    total = int(per_selected.sum())
    if total == 0:
        return empty, empty.copy(), empty.copy()
    offsets = np.zeros(selected.size + 1, dtype=np.int64)
    np.cumsum(per_selected, out=offsets[1:])
    owner = np.repeat(np.arange(selected.size, dtype=np.int64), per_selected)
    rank = np.arange(total, dtype=np.int64) - offsets[owner]
    src = ids64[selected[owner]]
    if index.is_clean_clean:
        dst = ids64[split[selected_block[owner]] + rank]
    else:
        dst = ids64[selected[owner] + 1 + rank]
    return src, dst, selected_block[owner]


def dedupe_pair_arrays(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort + deduplicate parallel pair arrays into edge arrays.

    Returns ``(edge_src, edge_dst, shared, inverse)`` where the edges are
    sorted lexicographically, ``shared`` counts each edge's occurrences,
    and ``inverse`` maps every input pair to its edge position.  One sort
    on the packed key; every output depends on the key values only, so
    the order among equal keys does not matter.  ``inverse`` lets weighted
    ``bincount`` passes accumulate per-edge float masses in the ORIGINAL
    (block-major) pair order — bincount is a sequential C loop, so the
    summation order (and hence every rounding) matches the reference
    path's ``stats.x += ...`` bit for bit.  Pairwise-summing reductions
    (reduceat, np.sum) would drift by an ulp and flip tie-breaks.
    """
    packed = pack_pairs(src, dst)
    order = np.argsort(packed)
    packed_sorted = packed[order]
    boundary = np.concatenate(([True], packed_sorted[1:] != packed_sorted[:-1]))
    starts = np.flatnonzero(boundary)
    edge_src, edge_dst = unpack_pairs(packed_sorted[starts])
    inverse = np.empty(packed.size, dtype=np.int64)
    inverse[order] = np.cumsum(boundary) - 1
    shared = np.diff(starts, append=packed.size)
    return edge_src, edge_dst, shared, inverse


def accumulate_arcs_mass(
    block_comparisons: np.ndarray,
    num_blocks: int,
    inverse: np.ndarray,
    pair_block: np.ndarray,
    num_edges: int,
) -> np.ndarray:
    """Per-edge ``sum over shared blocks of 1/||b||``.

    The bincount accumulation order (original pair order via *inverse*)
    is part of the bit-identity contract with the python oracle.
    """
    arcs_share = np.zeros(num_blocks, dtype=np.float64)
    np.divide(
        1.0, block_comparisons, out=arcs_share, where=block_comparisons > 0
    )
    return np.bincount(
        inverse, weights=arcs_share[pair_block], minlength=num_edges
    )


def accumulate_entropy_mass(
    block_entropies: np.ndarray,
    inverse: np.ndarray,
    pair_block: np.ndarray,
    num_edges: int,
) -> np.ndarray:
    """Per-edge summed entropy of the shared blocking keys (see above)."""
    return np.bincount(
        inverse, weights=block_entropies[pair_block], minlength=num_edges
    )


def shard_edge_arrays(
    index,
    lo: int,
    hi: int,
    *,
    block_entropies: np.ndarray | None = None,
    need_arcs: bool = False,
) -> ShardEdges:
    """Build one shard's deduplicated, mass-accumulated edge arrays.

    The workhorse of every shard, in a worker process or not.
    ``arcs_mass`` is accumulated only when *need_arcs* is set and
    ``entropy_mass`` only when *block_entropies* is given.
    """
    index = _as_shardable(index)
    src, dst, pair_block = enumerate_shard_pairs(index, lo, hi)
    if src.size == 0:
        empty_i = np.zeros(0, dtype=np.int64)
        empty_f = np.zeros(0, dtype=np.float64)
        return ShardEdges(
            src=empty_i,
            dst=empty_i.copy(),
            shared=empty_i.copy(),
            arcs_mass=empty_f if need_arcs else None,
            entropy_mass=empty_f.copy()
            if block_entropies is not None
            else None,
        )
    edge_src, edge_dst, shared, inverse = dedupe_pair_arrays(src, dst)
    arcs_mass = None
    if need_arcs:
        arcs_mass = accumulate_arcs_mass(
            index.block_comparisons,
            index.num_blocks,
            inverse,
            pair_block,
            edge_src.size,
        )
    entropy_mass = None
    if block_entropies is not None:
        entropy_mass = accumulate_entropy_mass(
            block_entropies, inverse, pair_block, edge_src.size
        )
    return ShardEdges(
        src=edge_src,
        dst=edge_dst,
        shared=shared,
        arcs_mass=arcs_mass,
        entropy_mass=entropy_mass,
    )
