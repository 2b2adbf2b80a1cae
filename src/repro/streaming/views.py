"""Query-time views over a live block index.

A *view* is the bridge between the mutable
:class:`~repro.streaming.index.IncrementalBlockIndex` and the per-node
meta-blocking kernels: it decides how Block Purging / Block Filtering and
the graph statistics (``|B_i|``, ``|B|``, per-block entropy) are evaluated
at query time.  Two built-ins are registered under
:data:`repro.core.registry.STREAM_VIEWS`:

``exact``
    Lazily materializes the *batch* semantics: on first query after a
    mutation the live postings are assembled into an index-born
    :class:`~repro.blocking.base.BlockCollection` by the id kernel the
    batch blockers use
    (:func:`~repro.blocking._interned.collection_from_assignments`), run
    through the very same :func:`~repro.blocking.purging.block_purging`
    and :func:`~repro.blocking.filtering.block_filtering` code the batch
    pipeline executes, and cached (with the CSR
    :class:`~repro.graph.entity_index.EntityIndex`) until the next
    mutation.  Queries against a frozen index reproduce the batch blocking
    graph statistic-for-statistic — this is the mode the stream-vs-batch
    equivalence property is proven against.

``fast``
    Reads the live structures directly: the posting arrays and the
    per-key / per-node count arrays the index keeps up to date on write.
    Purging is a size check of the query node's keys against the live
    profile count, filtering keeps only the *query* profile in its
    smallest key fraction (co-occurring profiles are not re-filtered),
    and ``|B_i|`` is the raw per-node key count.  A query is a few array
    operations over the query node's surviving keys, with zero rebuild
    cost per mutation — the arrival-time serving mode — at the price of
    approximating the batch restructurings.

Both views hand the kernels the same :class:`NeighborStats` arrays, so the
weighting code upstream is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from math import ceil

import numpy as np

from repro.blocking._interned import collection_from_assignments
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.streaming.index import IncrementalBlockIndex

__all__ = ["NeighborStats", "ExactStreamView", "FastStreamView"]


@dataclass(frozen=True)
class NeighborStats:
    """Per-neighbor co-occurrence statistics of one query node.

    ``neighbors`` holds *canonical* ids (view-dependent space), strictly
    ascending; the parallel arrays accumulate, over the shared blocks in
    block order, exactly what :class:`repro.graph.blocking_graph.EdgeStats`
    accumulates edge-wide.
    """

    neighbors: np.ndarray
    shared: np.ndarray
    arcs_mass: np.ndarray
    entropy_mass: np.ndarray

    @property
    def degree(self) -> int:
        return int(self.neighbors.size)


_EMPTY_STATS = NeighborStats(
    neighbors=np.zeros(0, dtype=np.int64),
    shared=np.zeros(0, dtype=np.int64),
    arcs_mass=np.zeros(0, dtype=np.float64),
    entropy_mass=np.zeros(0, dtype=np.float64),
)


def _aggregate(
    members: np.ndarray,
    arcs_share: np.ndarray,
    entropies: np.ndarray,
) -> NeighborStats:
    """Deduplicate co-occurring members into :class:`NeighborStats`.

    ``members`` lists one entry per (block, co-member) incidence in block
    order.  One sort groups the members; ``bincount`` over the group
    inverse then accumulates each neighbor's float masses in the original
    block order, matching the reference path's sequential
    ``stats.x += ...`` rounding.
    """
    if members.size == 0:
        return _EMPTY_STATS
    order = members.argsort()
    ordered = members[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(members.size, dtype=np.int64)
    inverse[order] = first.cumsum() - 1
    return NeighborStats(
        neighbors=ordered[first],
        shared=np.bincount(inverse),
        arcs_mass=np.bincount(inverse, weights=arcs_share),
        entropy_mass=np.bincount(inverse, weights=entropies),
    )


class ExactStreamView:
    """Batch-faithful view: lazily purged + filtered snapshot of the index.

    Canonical ids follow the batch global-indexing convention: source-0
    nodes (in node-id order, i.e. first-upsert order) occupy ``[0, n1)``,
    source-1 nodes ``[n1, n1 + n2)``.  Replaying a dataset in its profile
    order therefore assigns every profile its batch global index.
    """

    name = "exact"
    #: Exact views answer neighbor-side thresholds, enabling the full
    #: two-endpoint node-centric pruning rules.
    supports_neighbor_thresholds = True

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        self.version = index.version

        live = index.live_nodes()
        if index.clean_clean:
            live.sort(key=lambda node: (index.source_of(node), node))
            self.offset2 = sum(
                1 for node in live if index.source_of(node) == 0
            )
        else:
            self.offset2 = len(live)
        self._nodes = live  # canonical id -> index node id
        # index node id -> canonical id
        self._canonical = {node: position for position, node in enumerate(live)}

        # One (canonical member, key id) assignment per posting entry; the
        # blockers' id kernel groups them, drops the blocks that imply no
        # comparison and emits the rest in key-string order.
        key_ids = sorted(index.key_ids())
        postings = [index.posting_by_id(kid) for kid in key_ids]
        members = [
            side
            for posting in postings
            for side in posting.arrays()
            if side is not None
        ]
        canonical = np.zeros(max(live, default=-1) + 1, dtype=np.int64)
        canonical[live] = np.arange(len(live), dtype=np.int64)
        collection = collection_from_assignments(
            canonical[np.concatenate(members)] if members else canonical[:0],
            np.repeat(
                np.asarray(key_ids, dtype=np.int64),
                [posting.size for posting in postings],
            ),
            index.key_string,
            index.clean_clean,
            self.offset2,
        )

        if len(collection) and index.num_profiles:
            collection = block_purging(
                collection,
                index.num_profiles,
                max_profile_ratio=index.purging_ratio,
                max_comparisons=index.max_comparisons,
            )
            collection = block_filtering(collection, ratio=index.filtering_ratio)
        self.collection = collection

        ei = collection.entity_index
        self._entity_index = ei
        self.total_blocks = len(collection)
        self._node_blocks = ei.node_block_counts
        self._block_ptr = ei.block_ptr.astype(np.int64)
        self._block_split = ei.block_split.astype(np.int64)
        self._entity_ids = ei.entity_ids.astype(np.int64)
        comparisons = ei.block_comparisons
        self._arcs_share = np.zeros(len(collection), dtype=np.float64)
        np.divide(
            1.0, comparisons, out=self._arcs_share, where=comparisons > 0
        )
        # The collection's keys are the index's key ids: read each one's
        # entropy by id, with no key string built.
        self._entropies = np.fromiter(
            map(index.key_entropy_by_id, ei.keys.codes.tolist()),
            dtype=np.float64,
            count=self.total_blocks,
        )

    # -- id mapping ----------------------------------------------------------

    def canonical_of(self, node: int) -> int:
        """Canonical (batch global) id of an index node id."""
        try:
            return self._canonical[node]
        except KeyError:
            raise KeyError(f"node {node} is not live") from None

    def nodes_of(self, canonical: np.ndarray) -> list[int]:
        """Map canonical ids back to index node ids."""
        nodes = self._nodes
        return [nodes[c] for c in canonical.tolist()]

    # -- graph statistics ----------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Profiles appearing in at least one (surviving) block."""
        return self._entity_index.num_indexed_profiles

    @property
    def total_assignments(self) -> int:
        """``sum_i |B_i|`` over the purged + filtered collection."""
        return int(self._node_blocks.sum())

    def node_blocks(self, canonical: np.ndarray) -> np.ndarray:
        """``|B_i|`` (filtered) for an array of canonical ids."""
        return self._node_blocks[canonical]

    def node_blocks_scalar(self, canonical: int) -> int:
        if not 0 <= canonical < self._node_blocks.size:
            return 0
        return int(self._node_blocks[canonical])

    def gather(self, canonical: int) -> NeighborStats:
        """Co-occurrence statistics of one canonical node."""
        blocks = self._entity_index.blocks_of(canonical)
        if blocks.size == 0:
            return _EMPTY_STATS
        if self.index.clean_clean:
            if canonical < self.offset2:  # query node on the E1 side
                starts = self._block_split[blocks]
                ends = self._block_ptr[blocks + 1]
            else:
                starts = self._block_ptr[blocks]
                ends = self._block_split[blocks]
        else:
            starts = self._block_ptr[blocks]
            ends = self._block_ptr[blocks + 1]
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return _EMPTY_STATS
        offsets = np.zeros(blocks.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.repeat(starts - offsets, lengths) + np.arange(
            total, dtype=np.int64
        )
        members = self._entity_ids[flat]
        block_rep = np.repeat(blocks, lengths)
        if not self.index.clean_clean:
            mask = members != canonical
            members = members[mask]
            block_rep = block_rep[mask]
        return _aggregate(
            members,
            self._arcs_share[block_rep],
            self._entropies[block_rep],
        )


class FastStreamView:
    """Read-through view with incremental statistics (serving mode).

    Canonical ids are the index node ids themselves.  Purging is evaluated
    per key against the live profile count; filtering restricts only the
    query node to its smallest-key fraction (ties broken by key, matching
    the batch position order of key-sorted collections); ``|B_i|`` is the
    raw live key count per node.  The batch restructurings are therefore
    approximated, not reproduced — use the ``exact`` view when batch
    parity matters more than arrival-time latency.
    """

    name = "fast"
    supports_neighbor_thresholds = False

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        self.version = index.version

    # -- id mapping ----------------------------------------------------------

    def canonical_of(self, node: int) -> int:
        self.index.profile_of(node)  # KeyError for dead nodes
        return node

    def nodes_of(self, canonical: np.ndarray) -> list[int]:
        return canonical.tolist()

    # -- graph statistics ----------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return self.index.num_blocks

    @property
    def num_nodes(self) -> int:
        return self.index.num_profiles

    @property
    def total_assignments(self) -> int:
        return self.index.total_block_assignments

    def node_blocks(self, canonical: np.ndarray) -> np.ndarray:
        return self.index.node_key_counts[canonical]

    def node_blocks_scalar(self, canonical: int) -> int:
        return self.index.node_block_count(canonical)

    def _surviving_key_ids(self, node: int) -> tuple[list[int], list[int]]:
        """The query node's key ids after lazy purging + query-side
        filtering, smallest posting first, with their ``||b||``.

        One gather reads every key's member counts.  Filtering ties on
        equal posting sizes break by key *string* — the batch position
        order of key-sorted collections — so the strings of equal-size
        keys in the kept prefix are read to order them.
        """
        index = self.index
        kids = sorted(index.key_ids_of(node))
        left, right = index.key_member_counts[:, kids].tolist()
        size_cap = index.purging_ratio * index.num_profiles
        max_comparisons = index.max_comparisons
        clean_clean = index.clean_clean
        active: list[tuple[int, int, int]] = []
        for kid, n_left, n_right in zip(kids, left, right):
            size = n_left + n_right  # the right row stays zero when dirty
            comparisons = (
                n_left * n_right if clean_clean else n_left * (n_left - 1) // 2
            )
            if (
                comparisons
                and size <= size_cap
                and (max_comparisons is None or comparisons <= max_comparisons)
            ):
                active.append((size, kid, comparisons))
        active.sort()
        keep = ceil(index.filtering_ratio * len(active))
        kept: list[tuple[int, int, int]] = []
        for _, run in groupby(active, key=lambda row: row[0]):
            if len(kept) >= keep:
                break
            rows = list(run)
            if len(rows) > 1:
                rows.sort(key=lambda row: index.key_string(row[1]))
            kept.extend(rows)
        del kept[keep:]
        return [kid for _, kid, _ in kept], [c for _, _, c in kept]

    def gather(self, canonical: int) -> NeighborStats:
        index = self.index
        kids, comparisons = self._surviving_key_ids(canonical)
        if not kids:
            return _EMPTY_STATS
        # The co-members sit on the other source (clean-clean) or on the
        # query node's own side, minus the node itself (dirty).
        other = 1 - index.source_of(canonical) if index.clean_clean else 0
        postings = [index.posting_by_id(kid) for kid in kids]
        members = np.concatenate([p.right if other else p.left for p in postings])
        entropies = [index.key_entropy_by_id(kid) for kid in kids]
        per_key = np.array((comparisons, entropies), dtype=np.float64)
        np.divide(1.0, per_key[0], out=per_key[0])
        spread = np.repeat(per_key, index.key_member_counts[other][kids], axis=1)
        if not index.clean_clean:
            mask = members != canonical
            members, spread = members[mask], spread[:, mask]
        return _aggregate(members, spread[0], spread[1])
