"""CSR-style entity index of a block collection.

This index is the one stored form of a :class:`BlockCollection`: a
compressed-sparse-row layout — flat ``int32`` member arrays plus
per-block offset/cardinality arrays — from which every co-occurrence pair
can be enumerated, and every "do i and j share a block" answered
(:meth:`EntityIndex.co_blocked`), with pure numpy arithmetic:

* ``entity_ids[block_ptr[b]:block_ptr[b+1]]`` are block *b*'s members;
  for clean-clean blocks ``block_split[b]`` separates the (sorted) E1
  members from the (sorted) E2 members, and for dirty blocks
  ``block_split[b] == block_ptr[b+1]``.
* ``block_comparisons[b]`` is ``||b||``, the comparisons block *b* entails.
* ``node_block_counts[p]`` is ``|B_p|``, how many blocks index profile
  ``p`` (dense over ``[0, max_profile_id]``; zero for unindexed ids).

:func:`repro.graph.sharding.enumerate_shard_pairs` unranks the
comparisons of one entity-id range into parallel ``(src, dst, block)``
arrays in block-major order — the array analogue of ``for block:
block.iter_pairs()`` — with no per-pair Python bytecode.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.arrays import sorted_contains, sorted_unique

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base -> here)
    from collections.abc import Iterable

    from repro.blocking.base import Block
    from repro.graph.sharding import ShardableIndex

#: Bit width used to pack an ``(src, dst)`` pair into one int64 sort key.
_PAIR_SHIFT = np.int64(31)
_PAIR_MASK = np.int64((1 << 31) - 1)


class CodedKeys(Sequence[str]):
    """Block keys held as int64 codes, formatted on read.

    ``codes[b]`` is block *b*'s key code ``term * modulus + suffix``, and
    ``decode(code)`` its key string (``repro.blocking._interned`` builds
    these; its docstring states why code order is key-string order).
    """

    def __init__(
        self,
        codes: np.ndarray,
        decode: Callable[[int], str],
        modulus: int = 1,
        separator: str = "",
    ) -> None:
        self.codes = codes
        self.decode = decode
        self.modulus = modulus
        self.separator = separator

    def __len__(self) -> int:
        return self.codes.size

    def __getitem__(self, position: int) -> str:  # type: ignore[override]
        return self.decode(int(self.codes[position]))

    def __iter__(self) -> Iterator[str]:
        return map(self.decode, self.codes.tolist())

    def take(self, block_mask: np.ndarray) -> "CodedKeys":
        """The keys of the flagged blocks, still codes."""
        return CodedKeys(
            self.codes[block_mask], self.decode, self.modulus, self.separator
        )


@dataclass(frozen=True)
class EntityIndex:
    """Array (CSR) view of a block collection.

    Attributes
    ----------
    is_clean_clean:
        Whether the indexed collection is clean-clean.
    keys:
        Blocking key of every block, aligned with the block axis: a
        tuple for a block-born index, :class:`CodedKeys` (codes that
        restructuring selects and entropy weighting reads, formatted on
        read) for the interned blockers', and meta-blocking's
        ``"e:i-j"`` keys, also formatted on read.
    block_ptr:
        ``int32[num_blocks + 1]`` offsets into :attr:`entity_ids`.
    block_split:
        ``int32[num_blocks]`` boundary between E1 and E2 members of each
        block; equals ``block_ptr[b + 1]`` for dirty blocks.
    entity_ids:
        ``int32`` member profile ids, each side sorted ascending.
    block_comparisons:
        ``int64[num_blocks]`` — ``||b||`` per block (zero-comparison
        blocks are kept so block counts match the Python path).
    node_block_counts:
        ``int64[max_id + 1]`` — ``|B_p|`` per profile id, dense.
    """

    is_clean_clean: bool
    keys: Sequence[str]
    block_ptr: np.ndarray
    block_split: np.ndarray
    entity_ids: np.ndarray
    block_comparisons: np.ndarray
    node_block_counts: np.ndarray

    @classmethod
    def from_blocks(
        cls, blocks: "Iterable[Block]", is_clean_clean: bool
    ) -> "EntityIndex":
        """Lower ``Block`` objects into the flat array layout (one Python
        pass); the :class:`BlockCollection` constructor's only step."""
        keys: list[str] = []
        flat: list[int] = []
        sizes: list[int] = []
        left_sizes: list[int] = []
        for block in blocks:
            if block.is_clean_clean != is_clean_clean:
                raise ValueError(
                    f"block {block.key!r} kind does not match the collection"
                )
            keys.append(block.key)
            flat += sorted(block.left) + sorted(block.right or ())
            sizes.append(block.size)
            left_sizes.append(len(block.left))
        return cls.from_arrays(
            is_clean_clean, tuple(keys), sizes, left_sizes, flat
        )

    @classmethod
    def from_arrays(
        cls,
        is_clean_clean: bool,
        keys: Sequence[str],
        sizes,
        left_sizes,
        entity_ids,
    ) -> "EntityIndex":
        """Build an index from per-block member counts and the members.

        Block *b* holds the next ``sizes[b]`` ids of *entity_ids*, its
        first ``left_sizes[b]`` from E1 (all of them, for dirty ER), each
        side sorted ascending; offsets, splits and ``||b||`` follow.  The
        interned blocking kernels (``repro.blocking._interned``), the
        index restructurings and ``blocks_from_edges`` emit exactly this,
        so no ``Block`` object is walked.
        """
        sizes = np.asarray(sizes, dtype=np.int64)
        left_sizes = np.asarray(left_sizes, dtype=np.int64)
        entity_ids = np.asarray(entity_ids, dtype=np.int32)
        block_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=block_ptr[1:])
        if is_clean_clean:
            comparisons = left_sizes * (sizes - left_sizes)
        else:
            comparisons = sizes * (sizes - 1) // 2
        return cls(
            is_clean_clean=is_clean_clean,
            keys=keys,
            block_ptr=block_ptr.astype(np.int32),
            block_split=(block_ptr[:-1] + left_sizes).astype(np.int32),
            entity_ids=entity_ids,
            block_comparisons=comparisons,
            node_block_counts=np.bincount(entity_ids).astype(np.int64),
        )

    def take_blocks(self, block_mask: np.ndarray) -> "EntityIndex":
        """The index of the flagged blocks, members untouched.

        Every flagged block survives, including one that implies no
        comparison: only :meth:`take_members` drops those.
        """
        return self._compact(
            block_mask,
            block_mask[self.shardable.block_of_flat],
            np.diff(self.block_ptr),
            self.block_split - self.block_ptr[:-1],
        )

    def take_members(self, member_mask: np.ndarray) -> "EntityIndex":
        """The index restricted to the flagged memberships.

        *member_mask* is aligned with :attr:`entity_ids`.  Blocks left
        without a comparison (fewer than two members, or a clean-clean
        block that lost a whole side) are dropped, as block assembly does.
        """
        block_of = self.shardable.block_of_flat
        sizes = np.bincount(block_of[member_mask], minlength=self.num_blocks)
        if self.is_clean_clean:
            is_left = (
                np.arange(block_of.size, dtype=np.int32)
                < self.block_split[block_of]
            )
            left_sizes = np.bincount(
                block_of[member_mask & is_left], minlength=self.num_blocks
            )
            block_mask = (left_sizes > 0) & (sizes > left_sizes)
        else:
            left_sizes = sizes
            block_mask = sizes >= 2
        return self._compact(
            block_mask, member_mask & block_mask[block_of], sizes, left_sizes
        )

    def _compact(
        self,
        block_mask: np.ndarray,
        member_mask: np.ndarray,
        sizes: np.ndarray,
        left_sizes: np.ndarray,
    ) -> "EntityIndex":
        """Re-emit the CSR layout for the flagged blocks and memberships.

        *sizes* / *left_sizes* are the per-block member counts under
        *member_mask*, aligned with the current block axis.
        """
        keys = self.keys
        return EntityIndex.from_arrays(
            self.is_clean_clean,
            keys.take(block_mask)
            if isinstance(keys, CodedKeys)
            else tuple([keys[b] for b in np.flatnonzero(block_mask).tolist()]),
            sizes[block_mask],
            left_sizes[block_mask],
            self.entity_ids[member_mask],
        )

    @property
    def num_blocks(self) -> int:
        return len(self.keys)

    @property
    def num_indexed_profiles(self) -> int:
        """Distinct profiles appearing in at least one block."""
        return int(np.count_nonzero(self.node_block_counts))

    @property
    def total_comparisons(self) -> int:
        """``||B||`` — the aggregate cardinality."""
        return int(self.block_comparisons.sum())

    @cached_property
    def _member_blocks_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Transpose of the block->members layout: profile -> block positions.

        Returns ``(ptr, blocks)`` where ``blocks[ptr[p]:ptr[p+1]]`` are the
        positions of the blocks containing profile ``p``, ascending (read
        through the shard view's by-entity slot order)."""
        slim = self.shardable
        ptr, slots = slim.slots_by_entity
        return ptr, slim.block_of_flat[slots]

    def blocks_of(self, profile: int) -> np.ndarray:
        """Positions of the blocks containing *profile*, ascending.

        Profiles outside ``[0, max_id]`` (or indexed by no block) yield an
        empty array.
        """
        ptr, blocks = self._member_blocks_csr
        if not 0 <= profile < ptr.size - 1:
            return np.zeros(0, dtype=np.int64)
        return blocks[ptr[profile] : ptr[profile + 1]]

    def co_blocked(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Whether profiles ``src[k]`` and ``dst[k]`` share a block, per k.

        One array test: every block of each ``src[k]`` is gathered from
        the profile -> blocks CSR, packed with ``dst[k]`` as a
        ``(profile, block)`` key and binary-searched among the packed
        memberships, which that CSR already holds in ascending order.
        Ids past ``max_id`` share no block.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        ptr, blocks = self._member_blocks_csr
        counts = np.diff(ptr)
        members = pack_pairs(
            np.repeat(np.arange(counts.size, dtype=np.int64), counts), blocks
        )
        rows = np.flatnonzero((src < counts.size) & (dst < counts.size))
        runs = counts[src[rows]]
        pair_of = np.repeat(rows, runs)
        slots = np.arange(pair_of.size, dtype=np.int64) + np.repeat(
            ptr[src[rows]] - (np.cumsum(runs) - runs), runs
        )
        probes = pack_pairs(dst[pair_of], blocks[slots])
        found = np.zeros(src.size, dtype=bool)
        found[pair_of[sorted_contains(members, probes)]] = True
        return found

    @cached_property
    def shardable(self) -> "ShardableIndex":
        """The cached slim array-only view the shard kernels read.

        Cached so every pass over one index shares the view's flat-axis
        derivations (local import: sharding imports the pair-packing
        helpers from this module).
        """
        from repro.graph.sharding import ShardableIndex

        return ShardableIndex.from_entity_index(self)

    def block_entropies(self, key_entropy=None) -> np.ndarray:
        """Per-block entropy ``h(b)`` via *key_entropy* (1.0 when ``None``).

        A *key_entropy* with a ``separator`` and a ``gather(suffixes)``
        (:func:`repro.blocking.schema_aware.make_key_entropy`'s) reads
        :class:`CodedKeys` of that separator by their suffix codes, with
        no string built; any other callable is mapped over the keys.
        """
        if key_entropy is None:
            return np.ones(self.num_blocks, dtype=np.float64)
        keys = self.keys
        if isinstance(keys, CodedKeys) and keys.separator == getattr(
            key_entropy, "separator", None
        ):
            return key_entropy.gather(keys.codes % keys.modulus)
        return np.asarray([key_entropy(key) for key in keys], dtype=np.float64)

    def distinct_pair_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated comparison pairs, sorted lexicographically.

        Returns parallel ``(src, dst)`` int64 arrays — the array analogue
        of ``sorted(collection.distinct_pairs())`` at a fraction of the
        memory of a Python set of tuples.  Enumerated and deduplicated
        one default-plan shard at a time: shards own ascending ``src``
        ranges, so their sorted distinct lists concatenate into the
        global one and only the output outlives a shard.
        """
        from repro.graph import sharding

        slim = self.shardable
        plan = sharding.default_plan(slim)
        workspace = sharding.ShardWorkspace.for_plan(slim, plan)
        packed = []
        for lo, hi in plan:
            src, dst, *_ = sharding.enumerate_shard_pairs(slim, lo, hi, workspace)
            packed.append(sorted_unique(pack_pairs(src, dst, out=src)))
        return unpack_pairs(np.concatenate(packed))


def pack_pairs(
    src: np.ndarray, dst: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Pack ``(src, dst)`` into one int64 key preserving (src, dst) order."""
    packed = np.left_shift(src, _PAIR_SHIFT, out=out)
    return np.bitwise_or(packed, dst, out=packed)


def unpack_pairs(
    packed: np.ndarray, out: tuple[np.ndarray, np.ndarray] = (None, None)
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_pairs`."""
    return (
        np.right_shift(packed, _PAIR_SHIFT, out=out[0]),
        np.bitwise_and(packed, _PAIR_MASK, out=out[1]),
    )
