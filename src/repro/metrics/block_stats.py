"""Descriptive statistics of block collections.

The paper's Table 3 commentary reasons about block size distributions,
redundancy, and comparisons per profile; this module makes those
quantities first-class so users can diagnose *why* a collection has the
PQ it has before reaching for meta-blocking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.base import BlockCollection


@dataclass(frozen=True, slots=True)
class BlockCollectionStats:
    """Structure of one block collection.

    Attributes
    ----------
    num_blocks:
        Number of blocks.
    num_profiles:
        Distinct profiles indexed by at least one block.
    aggregate_cardinality:
        Total comparisons including redundancy (``||B||``).
    distinct_comparisons:
        Comparisons after deduplication across blocks.
    redundancy_ratio:
        ``aggregate / distinct`` — 1.0 means redundancy-free (the guarantee
        of meta-blocking output).
    min_block_size / median_block_size / max_block_size:
        Profile counts per block.
    mean_blocks_per_profile:
        Average ``|B_i|`` — the indexing redundancy of each profile.
    comparisons_per_profile:
        Average distinct comparisons each profile participates in.
    """

    num_blocks: int
    num_profiles: int
    aggregate_cardinality: int
    distinct_comparisons: int
    redundancy_ratio: float
    min_block_size: int
    median_block_size: float
    max_block_size: int
    mean_blocks_per_profile: float
    comparisons_per_profile: float

    def __str__(self) -> str:
        return (
            f"blocks={self.num_blocks} profiles={self.num_profiles} "
            f"||B||={self.aggregate_cardinality:,} "
            f"distinct={self.distinct_comparisons:,} "
            f"redundancy={self.redundancy_ratio:.2f}x "
            f"block-size[min/med/max]={self.min_block_size}/"
            f"{self.median_block_size:.1f}/{self.max_block_size} "
            f"blocks-per-profile={self.mean_blocks_per_profile:.1f}"
        )


def block_collection_stats(collection: BlockCollection) -> BlockCollectionStats:
    """Compute :class:`BlockCollectionStats` for *collection*.

    Distinct pairs are counted array-side (never materialized as a
    Python set of tuples), which lowers the memory constant by an order
    of magnitude — but the count still transiently enumerates all
    ``||B||`` comparisons, so raw web-scale token blocking remains out
    of scope.
    """
    index = collection.entity_index
    sizes = np.sort(np.diff(index.block_ptr)).tolist()
    num_blocks = len(sizes)
    aggregate = collection.aggregate_cardinality
    distinct = collection.count_distinct_pairs()
    num_profiles = index.num_indexed_profiles
    if num_blocks == 0:
        return BlockCollectionStats(0, 0, 0, 0, 1.0, 0, 0.0, 0, 0.0, 0.0)
    middle = num_blocks // 2
    median = (
        float(sizes[middle])
        if num_blocks % 2
        else (sizes[middle - 1] + sizes[middle]) / 2
    )
    return BlockCollectionStats(
        num_blocks=num_blocks,
        num_profiles=num_profiles,
        aggregate_cardinality=aggregate,
        distinct_comparisons=distinct,
        redundancy_ratio=aggregate / distinct if distinct else 1.0,
        min_block_size=sizes[0],
        median_block_size=median,
        max_block_size=sizes[-1],
        mean_blocks_per_profile=(
            index.entity_ids.size / num_profiles if num_profiles else 0.0
        ),
        comparisons_per_profile=(
            2 * distinct / num_profiles if num_profiles else 0.0
        ),
    )
