"""Block Purging [Papadakis et al., TKDE 2013] — Section 4.1 of the paper.

Discards blocks corresponding to extremely frequent blocking keys (stop
words and the like): the paper's formulation drops every block containing
more than half of the profiles in the collection.  An optional comparison
cap lets callers additionally bound per-block cost.
"""

from __future__ import annotations

import numpy as np

from repro.blocking.base import BlockCollection


def block_purging(
    collection: BlockCollection,
    num_profiles: int,
    max_profile_ratio: float = 0.5,
    max_comparisons: int | None = None,
) -> BlockCollection:
    """Remove oversized blocks from *collection*.

    Parameters
    ----------
    collection:
        The block collection to purge.
    num_profiles:
        Total profiles in the underlying dataset (both sources).
    max_profile_ratio:
        Blocks whose member count exceeds ``ratio * num_profiles`` are
        dropped; the paper uses one half.
    max_comparisons:
        If given, blocks implying more comparisons than this are also
        dropped.

    Returns
    -------
    BlockCollection
        A new collection; the input is never mutated.
    """
    if not 0.0 < max_profile_ratio <= 1.0:
        raise ValueError(f"max_profile_ratio must be in (0, 1], got {max_profile_ratio}")
    if num_profiles <= 0:
        raise ValueError(f"num_profiles must be positive, got {num_profiles}")
    index = collection.entity_index
    keep = np.diff(index.block_ptr) <= max_profile_ratio * num_profiles
    if max_comparisons is not None:
        keep &= index.block_comparisons <= max_comparisons
    return BlockCollection.from_index(index.take_blocks(keep))
