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

from repro.utils.arrays import stable_sort

__all__ = [
    "ShardEdges",
    "ShardableIndex",
    "ShardWorkspace",
    "dedupe_pair_arrays",
    "default_plan",
    "enumerate_shard_pairs",
    "pair_counts_by_entity",
    "plan_shards",
    "shard_edge_arrays",
]


#: Comparisons per shard when the caller names no ``shard_size``: the
#: fastest measured cap whose workspace adds no peak memory (DESIGN.md).
DEFAULT_SHARD_PAIRS = 32_000

#: Most shards the default plan cuts.  A shard may pay a fixed O(ids)
#: cost (a pruning's dense partial state, such as BLAST's node maxima), so
#: on huge inputs the cap grows with ``||B||`` instead of the shard count.
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

    # The flat-axis derivations below are O(total block slots), built once
    # per index, so a shard costs work in its own slots and pairs only.  A
    # pickled index carries whatever was built and lazily builds the rest.

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

    @cached_property
    def slots_by_entity(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, slots)``: ``slots[ptr[p]:ptr[p + 1]]`` are the flat slots
        holding profile ``p``, ascending (a stable sort; int32 slots)."""
        counts = np.bincount(self.entity_ids, minlength=self.num_ids)
        ptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        return ptr, stable_sort(self.entity_ids.astype(np.int64)).astype(np.int32)

    def pair_runs(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(owned, first_dst)`` of the members at int64 flat *slots*: the
        pairs each owns as src, dst slots ``first_dst, +1, ...`` (clean-clean:
        its block's right members if it is left; dirty: its block's later)."""
        block = self.block_of_flat[slots]
        ends = self.block_ptr[1:][block].astype(np.int64)
        if self.is_clean_clean:
            first = self.block_split[block].astype(np.int64)
            return np.where(slots < first, ends - first, 0), first
        return ends - slots - 1, slots + 1

    @cached_property
    def pair_ptr(self) -> np.ndarray:
        """``int64[num_ids + 1]`` — comparisons owned by the ids below each
        id: id range ``[lo, hi)`` owns ``pair_ptr[hi] - pair_ptr[lo]``."""
        entity_ptr, slots = self.slots_by_entity
        owned = self.pair_runs(slots.astype(np.int64))[0]
        return np.concatenate(([0], np.cumsum(owned)))[entity_ptr]

    @cached_property
    def block_arcs_share(self) -> np.ndarray:
        """``1/||b||`` per block (0 for a block without comparisons)."""
        comparisons = self.block_comparisons
        share = np.zeros(self.num_blocks, dtype=np.float64)
        return np.divide(1.0, comparisons, out=share, where=comparisons > 0)


class ShardWorkspace:
    """Scratch buffers of one plan loop, sized by the plan's largest shard.

    Every per-pair and per-edge intermediate of a shard is a row of a named
    block of buffers, allocated on its first request (at the capacity, or
    the request if larger) and reused by every later shard, so a loop
    faults its scratch in once.  A kernel called without a workspace makes
    a capacity-0 one.  Nothing that leaves a shard may alias a buffer.
    """

    def __init__(self, capacity: int = 0) -> None:
        self.capacity = capacity
        self._blocks: dict[str, np.ndarray] = {}

    @classmethod
    def for_plan(cls, index, plan: list[tuple[int, int]]) -> "ShardWorkspace":
        """A workspace for the shards of *plan* (buffers not yet allocated)."""
        ptr = _as_shardable(index).pair_ptr
        return cls(max((int(ptr[hi] - ptr[lo]) for lo, hi in plan), default=0))

    def views(self, names: str, size: int, dtype=np.int64) -> np.ndarray:
        """The first *size* items of the buffers of the block *names* (one
        row per space-separated name), to be unpacked by the caller."""
        block = self._blocks.get(names)
        if block is None or block.shape[1] < size:
            rows = names.count(" ") + 1
            block = np.empty((rows, max(size, self.capacity)), dtype=dtype)
            self._blocks[names] = block
        return block[:, :size]


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

    def copy(self) -> "ShardEdges":
        """The same edges in fresh arrays (none of them a workspace view)."""
        return ShardEdges(
            **{k: None if a is None else a.copy() for k, a in vars(self).items()}
        )


def _as_shardable(index) -> ShardableIndex:
    return index if isinstance(index, ShardableIndex) else index.shardable


def pair_counts_by_entity(index) -> np.ndarray:
    """``int64[num_ids]`` — comparisons owned by each entity id as ``src``
    (see :meth:`ShardableIndex.pair_runs`); the shard planner balances
    shards on these counts without enumerating any pair."""
    return np.diff(_as_shardable(index).pair_ptr)


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
    ptr = index.pair_ptr
    total = int(ptr[-1])
    shards = 1 if num_shards is None else num_shards
    if shards < 1:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be positive, got {max_pairs}")

    if max_pairs is not None:
        # Greedy strict-cap cuts: each shard is the longest id range whose
        # owned comparisons fit the (possibly num_shards-tightened) cap.
        cap = max_pairs
        if shards > 1 and total > 0:
            cap = min(cap, max(1, -(-total // shards)))
        boundaries = [0]
        while boundaries[-1] < n:
            lo = boundaries[-1]
            hi = int(np.searchsorted(ptr[1:], ptr[lo] + cap, side="right"))
            boundaries.append(min(max(hi, lo + 1), n))
        return list(zip(boundaries[:-1], boundaries[1:]))

    shards = min(shards, n)
    if shards <= 1:
        return [(0, n)]
    targets = np.arange(1, shards, dtype=np.float64) * (total / shards)
    cuts = np.searchsorted(ptr[1:], targets, side="left") + 1
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
        total = int(index.pair_ptr[-1])
        max_pairs = max(DEFAULT_SHARD_PAIRS, -(-total // MAX_DEFAULT_SHARDS))
    plan = plan_shards(index, num_shards=num_shards, max_pairs=max_pairs)
    return plan or [(0, 0)]


def enumerate_shard_pairs(
    index, lo: int, hi: int, workspace: ShardWorkspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shard's comparisons as ``(src, dst, run_block, run_length)``.

    Exactly the pairs of ``for block: block.iter_pairs()`` whose ``src``
    falls in ``[lo, hi)``, in the same relative order (``src < dst``:
    global indexing orders E1 before E2, dirty members are sorted), in
    runs of ``run_length[r]`` pairs of block ``run_block[r]``.  Work
    is proportional to the shard's own memberships and pairs: its slots
    come sorted from the index's cached by-entity order, and the pairs
    are repeated run by run into views of *workspace*.
    """
    index = _as_shardable(index)
    total = int(index.pair_ptr[hi] - index.pair_ptr[lo]) if lo < hi else 0
    workspace = workspace or ShardWorkspace()
    src, dst, dst_slot = workspace.views("src dst dst_slot", total)
    entity_ptr, slots = index.slots_by_entity
    selected = np.sort(slots[entity_ptr[lo] : entity_ptr[hi]]).astype(np.int64)
    per_slot, first_dst = index.pair_runs(selected)
    owners = per_slot > 0
    selected, per_slot, first_dst = (a[owners] for a in (selected, per_slot, first_dst))
    starts = np.cumsum(per_slot) - per_slot
    # An owner's pairs are a run: one src id, dst slots up from first_dst.
    ids = index.entity_ids64
    np.copyto(src, np.repeat(ids[selected], per_slot))
    offsets = np.repeat(first_dst - starts, per_slot)
    np.add(offsets, np.arange(total, dtype=np.int64), out=dst_slot)
    np.take(ids, dst_slot, out=dst, mode="clip")
    return src, dst, index.block_of_flat[selected], per_slot


def dedupe_pair_arrays(
    src: np.ndarray, dst: np.ndarray, workspace: ShardWorkspace | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Sort + deduplicate parallel pair arrays into edge arrays.

    Returns ``(edge_src, edge_dst, shared, order, edge_of)``: the edges,
    sorted lexicographically, and their occurrence counts; the input
    positions in sorted order, and the edge of each — all views of
    *workspace* (or of a private one).  One in-place sort of a composite
    key, the pair's offset in the shard's box above its position, so equal
    pairs come out in input order.  A ``bincount`` over ``edge_of`` of
    per-pair masses taken in ``order`` thus adds each edge's terms in the
    ORIGINAL (block-major) pair order — a sequential C loop, so every
    rounding matches the reference path's ``stats.x += ...`` bit for bit;
    pairwise-summing reductions (reduceat, np.sum) would drift by an ulp.
    """
    size = src.size
    workspace = workspace or ShardWorkspace()
    keys, order = workspace.views("keys order", size)
    (boundary,) = workspace.views("boundary", size, np.bool_)
    if size:  # each pair's offset in the shard's src x dst box
        np.subtract(src, src.min(), out=keys)
        keys *= dst.max() - dst.min() + 1
        keys += dst
        keys -= dst.min()
    stable_sort(keys, order)
    boundary[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    num_edges = starts.size
    edge_src, edge_dst, shared = workspace.views("edge_src edge_dst shared", num_edges)
    first = np.take(order, starts, out=shared, mode="clip")
    np.take(src, first, out=edge_src, mode="clip")
    np.take(dst, first, out=edge_dst, mode="clip")
    np.subtract(starts[1:], starts[:-1], out=shared[:-1])
    shared[-1:] = size - starts[-1:]
    # Spent keys: the edge of each sorted pair.
    edge_of = np.cumsum(boundary, out=keys)
    edge_of -= 1
    return edge_src, edge_dst, shared, order, edge_of


def shard_edge_arrays(
    index,
    lo: int,
    hi: int,
    *,
    block_entropies: np.ndarray | None = None,
    need_arcs: bool = False,
    workspace: ShardWorkspace | None = None,
) -> ShardEdges:
    """Build one shard's deduplicated, mass-accumulated edge arrays.

    The workhorse of every shard, in a worker process or not.
    ``arcs_mass`` is accumulated only when *need_arcs* is set and
    ``entropy_mass`` only when *block_entropies* is given.  With a
    *workspace*, ``src``/``dst``/``shared`` are views of it, valid until
    its next shard (:meth:`ShardEdges.copy` keeps them); without one, every
    array is the caller's own.
    """
    index = _as_shardable(index)
    workspace = workspace or ShardWorkspace()
    src, dst, run_block, run_length = enumerate_shard_pairs(index, lo, hi, workspace)
    edge_src, edge_dst, shared, order, edge_of = dedupe_pair_arrays(
        src, dst, workspace
    )
    # Per-edge sums of 1/||b|| (ARCS) and of the key entropies over the
    # shared blocks, accumulated in pair order (see dedupe_pair_arrays).
    (pair_mass,) = workspace.views("pair_mass", src.size, np.float64)
    masses = []
    arcs_share = index.block_arcs_share if need_arcs else None
    for per_block in (arcs_share, block_entropies):
        if per_block is not None:
            run_mass = np.repeat(per_block[run_block], run_length)
            np.take(run_mass, order, out=pair_mass, mode="clip")
            per_block = np.bincount(
                edge_of, weights=pair_mass, minlength=edge_src.size
            )
        masses.append(per_block)
    return ShardEdges(edge_src, edge_dst, shared, *masses)
