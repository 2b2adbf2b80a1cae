"""Block Filtering [Papadakis et al., EDBT 2016] — Section 4.1 of the paper.

A light-weight, schema-free pre-meta-blocking step: each profile stays only
in the most significant fraction of its blocks (the smallest ones, since
small blocks carry more discriminating keys).  The paper filters out the 20%
least significant blocks per profile (footnote 9).
"""

from __future__ import annotations

import numpy as np

from repro.blocking.base import BlockCollection
from repro.utils.arrays import stable_sort


def block_filtering(
    collection: BlockCollection, ratio: float = 0.8
) -> BlockCollection:
    """Retain each profile in the ``ceil(ratio * |B_i|)`` smallest of its blocks.

    Parameters
    ----------
    collection:
        The block collection to restructure.
    ratio:
        Fraction of blocks each profile is kept in (0 < ratio <= 1).  The
        paper's default keeps 80%.

    Returns
    -------
    BlockCollection
        A new collection in which every block retains only the memberships
        that survived filtering; blocks left without any comparison are
        dropped.

    Runs on the collection's CSR entity index (a Block-born collection is
    lowered once) and returns an index-born collection.  A profile counts
    once per block it is a member of: E1 and E2 ids are disjoint under
    global indexing, so no id sits on both sides of one block.
    """
    if not 0.0 < ratio <= 1.0:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")

    index = collection.entity_index
    profiles = index.entity_ids
    block_of = index.shardable.block_of_flat
    # Rank each profile's memberships by ascending block size, ties broken
    # by block position for determinism: one sort of the distinct key
    # profile * num_blocks + rank of the block by (size, position).
    num_blocks = index.num_blocks
    block_rank = np.empty(num_blocks, dtype=np.int64)
    block_rank[np.argsort(np.diff(index.block_ptr), kind="stable")] = np.arange(
        num_blocks, dtype=np.int64
    )
    membership = profiles.astype(np.int64) * num_blocks
    membership += block_rank[block_of]
    order = stable_sort(membership)
    counts = index.node_block_counts
    first = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    ranked = profiles[order]
    rank = np.arange(ranked.size, dtype=np.int64) - first[ranked]
    # The keep count is math.ceil(ratio * n) on the float64 product, as it
    # always was: ceil(0.28 * 25) is 8 because the product is
    # 7.000000000000001.  Exact arithmetic here would move goldens.
    keep = np.ceil(ratio * counts.astype(np.float64)).astype(np.int64)
    retained = np.zeros(ranked.size, dtype=np.bool_)
    retained[order] = rank < keep[ranked]
    return BlockCollection.from_index(index.take_members(retained))
