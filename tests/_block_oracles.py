"""Set-based block restructuring and quality, kept as the test oracles.

These are the bodies ``repro.blocking.purging``,
``repro.blocking.filtering``, ``blocks_from_edges`` and the PC count had
before they became array code over the CSR entity index: they walk
``Block`` objects and Python sets only, touch no numpy, and define the
output the array code must reproduce bit for bit (keys, block order,
member sets, detected duplicates).

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.blocking.base import Block, BlockCollection
from repro.graph.entity_index import EntityIndex

INDEX_FIELDS = (
    "block_ptr",
    "block_split",
    "entity_ids",
    "block_comparisons",
    "node_block_counts",
)


def oracle_block_purging(
    collection: BlockCollection,
    num_profiles: int,
    max_profile_ratio: float = 0.5,
    max_comparisons: int | None = None,
) -> BlockCollection:
    size_cap = max_profile_ratio * num_profiles
    kept = []
    for block in collection:
        if block.size > size_cap:
            continue
        if max_comparisons is not None and block.num_comparisons > max_comparisons:
            continue
        kept.append(block)
    return BlockCollection(kept, collection.is_clean_clean)


def oracle_block_filtering(
    collection: BlockCollection, ratio: float = 0.8
) -> BlockCollection:
    sizes = [block.size for block in collection]
    profile_blocks: dict[int, set[int]] = {}
    for position, block in enumerate(collection):
        for profile in block.profiles:
            profile_blocks.setdefault(profile, set()).add(position)

    retained: dict[int, set[int]] = {}  # block position -> kept profiles
    for profile, positions in profile_blocks.items():
        ranked = sorted(positions, key=lambda pos: (sizes[pos], pos))
        keep = math.ceil(ratio * len(ranked))
        for pos in ranked[:keep]:
            retained.setdefault(pos, set()).add(profile)

    blocks: list[Block] = []
    for position, block in enumerate(collection):
        kept = retained.get(position)
        if not kept:
            continue
        if collection.is_clean_clean:
            left = frozenset(block.left & kept)
            right = frozenset((block.right or frozenset()) & kept)
            if left and right:
                blocks.append(Block(block.key, left, right))
        else:
            members = frozenset(block.left & kept)
            if len(members) >= 2:
                blocks.append(Block(block.key, members))
    return BlockCollection(blocks, collection.is_clean_clean)


def oracle_blocks_from_edges(
    edges, is_clean_clean: bool, *, presorted: bool = False
) -> BlockCollection:
    """One ``Block`` per ``(i, j)`` tuple of *edges*, built one by one."""
    ordered = edges if presorted else sorted(edges)
    blocks = []
    for i, j in ordered:
        if is_clean_clean:
            blocks.append(Block(f"e:{i}-{j}", frozenset((i,)), frozenset((j,))))
        else:
            blocks.append(Block(f"e:{i}-{j}", frozenset((i, j))))
    return BlockCollection(blocks, is_clean_clean)


def oracle_detected_duplicates(collection: BlockCollection, truth_pairs) -> int:
    """|D_B| by frozensets: ``B_p`` for every profile, then one
    ``isdisjoint`` test per truth pair."""
    block_sets: dict[int, set[int]] = {}
    for position, block in enumerate(collection):
        for profile in block.profiles:
            block_sets.setdefault(profile, set()).add(position)
    empty: frozenset[int] = frozenset()
    return sum(
        not block_sets.get(i, empty).isdisjoint(block_sets.get(j, empty))
        for i, j in truth_pairs
    )


def assert_same_edges(actual: np.ndarray, expected: np.ndarray) -> None:
    """Backend outputs: ``(E, 2)`` int64 arrays, equal row for row."""
    for edges in (actual, expected):
        assert edges.dtype == np.int64
        assert edges.ndim == 2 and edges.shape[1] == 2
    assert actual.tolist() == expected.tolist()


def assert_same_index(got: EntityIndex, want: EntityIndex) -> None:
    """Field-by-field CSR equality, dtypes included."""
    assert got.is_clean_clean == want.is_clean_clean
    assert tuple(got.keys) == tuple(want.keys)
    for name in INDEX_FIELDS:
        ours, reference = getattr(got, name), getattr(want, name)
        assert ours.dtype == reference.dtype, name
        assert np.array_equal(ours, reference), name


def assert_bit_identical(new: BlockCollection, oracle: BlockCollection) -> None:
    """Same blocks in the same order, and a CSR index that is exactly the
    lowering of those blocks."""
    assert new.is_clean_clean == oracle.is_clean_clean
    assert len(new) == len(oracle)
    assert new.aggregate_cardinality == oracle.aggregate_cardinality
    index = new.entity_index  # read before the Block view exists
    assert list(new) == list(oracle)
    assert_same_index(
        index, EntityIndex.from_blocks(list(new), new.is_clean_clean)
    )
