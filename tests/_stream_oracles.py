"""Set-based ``fast``-view postings and gather, kept as the test oracle.

The ``fast`` view of :mod:`repro.streaming.views` reads posting arrays
and per-key / per-node counts that :class:`IncrementalBlockIndex` keeps up
to date on write, and answers a query in a few array operations.  Before
that, every posting list was a pair of Python sets lowered to arrays on
demand, and a query walked the node's keys one by one.  That code lives
on here: :class:`PostingList` is the set-based posting, rebuilt by
:func:`set_postings` from each live node's key ids alone, and
:class:`OracleFastView` is the per-key ``fast`` view over it.
:class:`OracleMetaBlocker` runs the production weighting and pruning over
that view, so :meth:`OracleMetaBlocker.top_k` defines what
``candidates(k)`` must return bit for bit.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

from math import ceil

import numpy as np

from repro.streaming import IncrementalBlockIndex, StreamingMetaBlocker
from repro.streaming.views import NeighborStats

_EMPTY_STATS = NeighborStats(
    neighbors=np.zeros(0, dtype=np.int64),
    shared=np.zeros(0, dtype=np.int64),
    arcs_mass=np.zeros(0, dtype=np.float64),
    entropy_mass=np.zeros(0, dtype=np.float64),
)


class PostingList:
    """The live members of one blocking key.

    Mutation happens on plain Python sets; :meth:`arrays` lowers the sets
    to sorted int64 numpy arrays on demand and caches them until the next
    mutation, so the vectorized query kernels always gather from
    array-backed postings.
    """

    __slots__ = ("left", "right", "_arrays")

    def __init__(self, clean_clean: bool) -> None:
        self.left: set[int] = set()
        self.right: set[int] | None = set() if clean_clean else None
        self._arrays: tuple[np.ndarray, np.ndarray | None] | None = None

    @property
    def is_clean_clean(self) -> bool:
        return self.right is not None

    @property
    def size(self) -> int:
        """Number of member profiles (both sources)."""
        return len(self.left) + (len(self.right) if self.right else 0)

    @property
    def num_comparisons(self) -> int:
        """``||b||`` of the block this posting list denotes."""
        if self.right is not None:
            return len(self.left) * len(self.right)
        n = len(self.left)
        return n * (n - 1) // 2

    def add(self, node: int, side: int) -> None:
        (self.left if side == 0 else self.right).add(node)
        self._arrays = None

    def discard(self, node: int, side: int) -> None:
        (self.left if side == 0 else self.right).discard(node)
        self._arrays = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Sorted ``(left, right)`` member arrays (cached until mutated)."""
        if self._arrays is None:
            left = np.fromiter(
                sorted(self.left), dtype=np.int64, count=len(self.left)
            )
            right = None
            if self.right is not None:
                right = np.fromiter(
                    sorted(self.right), dtype=np.int64, count=len(self.right)
                )
            self._arrays = (left, right)
        return self._arrays

    def __repr__(self) -> str:
        return f"PostingList(size={self.size})"


def set_postings(index: IncrementalBlockIndex) -> dict[int, PostingList]:
    """Key id -> set-based posting, rebuilt from every live node's key ids.

    Reads only ``live_nodes``, ``source_of`` and ``key_ids_of``, never the
    index's own postings, so the oracle cannot inherit their bugs.
    """
    postings: dict[int, PostingList] = {}
    for node in index.live_nodes():
        source = index.source_of(node)
        for kid in sorted(index.key_ids_of(node)):
            posting = postings.get(kid)
            if posting is None:
                posting = postings[kid] = PostingList(index.clean_clean)
            posting.add(node, source)
    return postings


def _aggregate(
    members: np.ndarray,
    arcs_share: np.ndarray,
    entropies: np.ndarray,
) -> NeighborStats:
    """Deduplicate co-occurring members into :class:`NeighborStats`.

    ``members`` lists one entry per (block, co-member) incidence in block
    order; ``bincount`` over the ``unique`` inverse accumulates each
    neighbor's float masses in that original order, matching the reference
    path's sequential ``stats.x += ...`` rounding.
    """
    if members.size == 0:
        return _EMPTY_STATS
    neighbors, inverse = np.unique(members, return_inverse=True)
    shared = np.bincount(inverse, minlength=neighbors.size)
    arcs = np.bincount(inverse, weights=arcs_share, minlength=neighbors.size)
    entropy = np.bincount(inverse, weights=entropies, minlength=neighbors.size)
    return NeighborStats(
        neighbors=neighbors.astype(np.int64),
        shared=shared.astype(np.int64),
        arcs_mass=arcs,
        entropy_mass=entropy,
    )


class OracleFastView:
    """The per-key ``fast`` view over :func:`set_postings`.

    Same interface and semantics as
    :class:`repro.streaming.views.FastStreamView`: canonical ids are node
    ids, purging is a per-key size check against the live profile count,
    filtering keeps the query node's smallest-key fraction, and ``|B_i|``
    is the raw live key count.
    """

    name = "fast"
    supports_neighbor_thresholds = False

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        self.version = index.version
        self.postings = set_postings(index)

    def canonical_of(self, node: int) -> int:
        self.index.profile_of(node)  # KeyError for dead nodes
        return node

    def nodes_of(self, canonical: np.ndarray) -> list[int]:
        return canonical.tolist()

    @property
    def total_blocks(self) -> int:
        return len(self.postings)

    @property
    def num_nodes(self) -> int:
        return self.index.num_profiles

    @property
    def total_assignments(self) -> int:
        index = self.index
        return sum(len(index.key_ids_of(n)) for n in index.live_nodes())

    def node_blocks(self, canonical: np.ndarray) -> np.ndarray:
        index = self.index
        return np.fromiter(
            (len(index.key_ids_of(n)) for n in canonical.tolist()),
            dtype=np.int64,
            count=canonical.size,
        )

    def node_blocks_scalar(self, canonical: int) -> int:
        return len(self.index.key_ids_of(canonical))

    def _surviving_key_ids(self, node: int) -> list[int]:
        """The query node's key ids after lazy purging + query-side
        filtering, smallest posting first.

        Filtering ties on equal posting sizes break by key *string* — the
        batch position order of key-sorted collections — so the sort key
        materializes the string while the result stays in id space.
        """
        index = self.index
        size_cap = index.purging_ratio * index.num_profiles
        max_comparisons = index.max_comparisons
        key_string = index.key_string
        active: list[tuple[int, str, int]] = []
        # Append order is erased by the total-order active.sort() below:
        # the (size, key string, kid) sort key has no ties.
        # repro-lint: disable-next=RL001
        for kid in index.key_ids_of(node):
            posting = self.postings[kid]
            if posting.num_comparisons == 0:
                continue
            if posting.size > size_cap:
                continue
            if (
                max_comparisons is not None
                and posting.num_comparisons > max_comparisons
            ):
                continue
            active.append((posting.size, key_string(kid), kid))
        if not active:
            return []
        active.sort()
        keep = ceil(index.filtering_ratio * len(active))
        return [kid for _, _, kid in active[:keep]]

    def gather(self, canonical: int) -> NeighborStats:
        index = self.index
        key_ids = self._surviving_key_ids(canonical)
        if not key_ids:
            return _EMPTY_STATS
        source = index.source_of(canonical)
        member_chunks: list[np.ndarray] = []
        arcs_chunks: list[np.ndarray] = []
        entropy_chunks: list[np.ndarray] = []
        for kid in key_ids:
            posting = self.postings[kid]
            left, right = posting.arrays()
            if index.clean_clean:
                others = right if source == 0 else left
            else:
                others = left[left != canonical]
            if others.size == 0:
                continue
            member_chunks.append(others)
            arcs_chunks.append(
                np.full(others.size, 1.0 / posting.num_comparisons)
            )
            entropy_chunks.append(
                np.full(others.size, index.key_entropy_by_id(kid))
            )
        if not member_chunks:
            return _EMPTY_STATS
        return _aggregate(
            np.concatenate(member_chunks),
            np.concatenate(arcs_chunks),
            np.concatenate(entropy_chunks),
        )


class OracleMetaBlocker(StreamingMetaBlocker):
    """The production weighting and pruning over :class:`OracleFastView`."""

    def __init__(self, index: IncrementalBlockIndex, **kwargs) -> None:
        super().__init__(index, consistency="fast", **kwargs)

    def view(self):
        if self._view is None or self._view_version != self.index.version:
            self._view = OracleFastView(self.index)
            self._view_version = self.index.version
            self._summaries.clear()
        return self._view

    def top_k(self, ref, k: int | None, source: int = 0) -> list:
        """Every retained partner ranked, then cut to the first *k*."""
        ranked = self.candidates(ref, source=source)
        return ranked if k is None else ranked[:k]
