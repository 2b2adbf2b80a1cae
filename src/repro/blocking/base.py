"""Blocks and block collections.

A *block* groups profiles that share a blocking key; a *block collection*
(the paper's ``B``) is the set of blocks a blocking technique emits.  Profiles
are referenced by their global indices (see :class:`repro.data.ERDataset`).

Clean-clean blocks keep the two sources separate (``left`` from E1, ``right``
from E2) because only cross-source pairs are comparisons; dirty blocks have a
single member set (``right is None``).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True, slots=True)
class Block:
    """One block: a key and the member profiles it indexes.

    Attributes
    ----------
    key:
        The blocking key (token, q-gram, suffix, or ``token#cluster``).
    left:
        Global indices of the members from E1 (all members, for dirty ER).
    right:
        Global indices of the members from E2, or ``None`` for dirty ER.
    """

    key: str
    left: frozenset[int]
    right: frozenset[int] | None = None
    # Lazily-filled cache of the sorted member tuples (a block is
    # immutable, so iter_pairs would otherwise re-sort on every call —
    # a hot path when large blocks are enumerated repeatedly).  Excluded
    # from __eq__/__hash__/repr; written via object.__setattr__ because
    # the dataclass is frozen.
    _sorted_members: tuple[tuple[int, ...], tuple[int, ...] | None] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )

    @property
    def is_clean_clean(self) -> bool:
        return self.right is not None

    @property
    def profiles(self) -> frozenset[int]:
        """All member profiles, regardless of source."""
        if self.right is None:
            return self.left
        return self.left | self.right

    @property
    def size(self) -> int:
        """Number of member profiles."""
        return len(self.left) + (len(self.right) if self.right else 0)

    @property
    def num_comparisons(self) -> int:
        """``||b||``: comparisons the block entails (Section 2)."""
        if self.right is not None:
            return len(self.left) * len(self.right)
        n = len(self.left)
        return n * (n - 1) // 2

    def _pair_order(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """The member sets as sorted tuples, computed once per block."""
        cached = self._sorted_members
        if cached is None:
            cached = (
                tuple(sorted(self.left)),
                tuple(sorted(self.right)) if self.right is not None else None,
            )
            object.__setattr__(self, "_sorted_members", cached)
        return cached

    def iter_pairs(self) -> Iterator[tuple[int, int]]:
        """Yield the comparison pairs as canonical ``(i, j)`` with ``i < j``,
        in lexicographic order.

        For clean-clean blocks global indexing already guarantees every E1
        index is smaller than every E2 index.  Both member sets are sorted
        before iteration (RL001): frozenset order depends on insertion
        history, so yielding raw set order would stream the same block's
        pairs differently between equal collections built along different
        paths (e.g. batch vs snapshot-restored).  The sorted tuples are
        cached on the (immutable) block, so repeated enumeration pays the
        O(n log n) sort only once.
        """
        left, right = self._pair_order()
        if right is not None:
            for i in left:
                for j in right:
                    yield (i, j)
        else:
            yield from itertools.combinations(left, 2)


class BlockCollection(Sequence[Block]):
    """An ordered collection of blocks emitted by one blocking technique.

    Its one stored form is a CSR :class:`~repro.graph.entity_index.EntityIndex`.
    A collection is born either from :class:`Block` objects (the
    constructor, which lowers them once and keeps the list as its
    ``Block`` view) or from an index (:meth:`from_index` — the interned
    blockers, Block Purging, Block Filtering and meta-blocking's
    one-comparison blocks).  ``len``, the cardinalities and
    :attr:`entity_index` read the arrays; an index-born collection builds
    its ``Block`` objects only when someone iterates or indexes it.
    """

    def __init__(self, blocks: Iterable[Block], is_clean_clean: bool) -> None:
        from repro.graph.entity_index import EntityIndex

        self._block_list: list[Block] | None = list(blocks)
        self._index = EntityIndex.from_blocks(self._block_list, is_clean_clean)
        self.is_clean_clean = is_clean_clean

    @classmethod
    def from_index(cls, index) -> "BlockCollection":
        """A collection over the blocks *index* describes, none built yet."""
        self = cls.__new__(cls)
        self.is_clean_clean = index.is_clean_clean
        self._index = index
        self._block_list = None
        return self

    @property
    def _blocks(self) -> list[Block]:
        """The ``Block`` view, materialised from the index on first use."""
        if self._block_list is None:
            index = self._index
            ids = index.entity_ids.tolist()
            starts = index.block_ptr.tolist()
            splits = index.block_split.tolist()
            # A dirty block's split is its end: ``left`` holds every member.
            self._block_list = [
                Block(
                    key,
                    frozenset(ids[lo:mid]),
                    frozenset(ids[mid:hi]) if self.is_clean_clean else None,
                )
                for key, lo, mid, hi in zip(index.keys, starts, splits, starts[1:])
            ]
        return self._block_list

    def __len__(self) -> int:
        return self._index.num_blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __getitem__(self, index):  # type: ignore[override]
        return self._blocks[index]

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self)}, "
            f"comparisons={self.aggregate_cardinality})"
        )

    @property
    def aggregate_cardinality(self) -> int:
        """``||B||``: total comparisons across all blocks (with redundancy)."""
        return self._index.total_comparisons

    @property
    def num_indexed_profiles(self) -> int:
        """How many distinct profiles appear in at least one block."""
        return self._index.num_indexed_profiles

    @property
    def entity_index(self):
        """The collection's CSR arrays
        (:class:`repro.graph.entity_index.EntityIndex`)."""
        return self._index

    def iter_distinct_pairs(self) -> Iterator[tuple[int, int]]:
        """Stream the distinct comparison pairs in lexicographic order.

        Deduplication happens array-side when this method is *called*
        (enumeration + sort one shard at a time; the distinct pairs are
        held as arrays, a fraction of a Python set of tuples); the
        returned iterator then yields without further per-pair work.
        Prefer this over :meth:`distinct_pairs` whenever a single pass is
        enough (matching, counting, writing pairs out).
        """
        src, dst = self.entity_index.distinct_pair_arrays()

        def generate() -> Iterator[tuple[int, int]]:
            chunk = 1 << 16
            for start in range(0, len(src), chunk):
                yield from zip(
                    src[start : start + chunk].tolist(),
                    dst[start : start + chunk].tolist(),
                )

        return generate()

    def count_distinct_pairs(self) -> int:
        """Number of distinct comparison pairs, without a Python pair set.

        Still enumerates every comparison array-side and holds the
        distinct pairs as arrays, like :meth:`iter_distinct_pairs` —
        cheaper than a set of tuples by a large constant factor, not
        asymptotically.
        """
        return len(self.entity_index.distinct_pair_arrays()[0])

    def distinct_pairs(self) -> set[tuple[int, int]]:
        """All distinct comparison pairs implied by the collection.

        Materializes the pair set — only call when set semantics are
        actually needed; :meth:`iter_distinct_pairs` streams the same
        pairs and :meth:`count_distinct_pairs` counts them.
        """
        return set(self.iter_distinct_pairs())


def build_blocks(
    keyed_members: dict[str, tuple[set[int], set[int]]] | dict[str, set[int]],
    is_clean_clean: bool,
) -> BlockCollection:
    """Assemble a :class:`BlockCollection` from a key -> members mapping.

    Blocks that imply no comparison (single-member dirty blocks, clean-clean
    blocks missing one side) are dropped here, once, instead of in every
    blocker.  Keys are emitted in sorted order for determinism.
    """
    blocks: list[Block] = []
    for key in sorted(keyed_members):
        members = keyed_members[key]
        if is_clean_clean:
            left, right = members  # type: ignore[misc]
            if left and right:
                blocks.append(Block(key, frozenset(left), frozenset(right)))
        else:
            group = members  # type: ignore[assignment]
            if len(group) >= 2:
                blocks.append(Block(key, frozenset(group)))
    return BlockCollection(blocks, is_clean_clean)
