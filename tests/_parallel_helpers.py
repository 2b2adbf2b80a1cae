"""Test helpers for the parallel backend: seeded inputs and a shard spy.

Lives beside the root ``conftest.py`` so every suite can import it (pytest
puts this directory on ``sys.path`` when it loads the conftest).
"""

from __future__ import annotations

import random
from unittest import mock

from repro.blocking.base import build_blocks
from repro.graph.parallel import parallel_metablocking
from repro.graph.vectorized import Collector


def random_blocks(seed, *, profiles, blocks, largest):
    """A seeded dirty collection with overlapping blocks of 2..*largest*."""
    rng = random.Random(seed)
    return build_blocks(
        {
            f"k{position}": set(
                rng.sample(range(profiles), rng.randint(2, largest))
            )
            for position in range(blocks)
        },
        is_clean_clean=False,
    )


def run_capturing_shards(collection, **kwargs):
    """``parallel_metablocking(workers=1)`` plus each shard's raw result.

    Returns ``(retained, shipped)`` where ``shipped[position]`` is the
    ``(edges, weights, partial)`` triple the shard at that plan position
    handed to the collector, before any merge: *partial* is the pruning's
    reduced state of that shard (BLAST's node maxima), or ``None``.
    """
    shipped = {}
    collect = Collector.add

    def spy(self, position, result):
        shipped[position] = result
        collect(self, position, result)

    with mock.patch.object(Collector, "add", spy):
        retained = parallel_metablocking(collection, workers=1, **kwargs)
    return retained, [shipped[position] for position in sorted(shipped)]
