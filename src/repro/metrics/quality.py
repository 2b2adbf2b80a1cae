"""Pair Completeness, Pair Quality, F1 (paper Section 2, "Metrics").

* ``PC(B) = |D_B| / |D_E|`` — fraction of ground-truth duplicates that share
  at least one block (recall surrogate).
* ``PQ(B) = |D_B| / ||B||`` — detected duplicates per executed comparison
  (precision surrogate; the denominator counts *every* comparison the
  collection entails, redundant ones included).
* ``F1`` — their harmonic mean.

The Section 4 comparisons also use relative deltas: ``dPC(B, B') =
(PC(B') - PC(B)) / PC(B)`` and the analogous ``dPQ``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset


@dataclass(frozen=True, slots=True)
class BlockingQuality:
    """Quality figures of one block collection against a ground truth."""

    pair_completeness: float
    pair_quality: float
    detected_duplicates: int
    total_duplicates: int
    comparisons: int
    num_blocks: int

    @property
    def f1(self) -> float:
        """Harmonic mean of PC and PQ (0 when both are 0)."""
        return f1_score(self.pair_completeness, self.pair_quality)

    def __str__(self) -> str:
        return (
            f"PC={self.pair_completeness:.2%} PQ={self.pair_quality:.4%} "
            f"F1={self.f1:.3f} comparisons={self.comparisons:.3g} "
            f"blocks={self.num_blocks}"
        )


def f1_score(pc: float, pq: float) -> float:
    """Harmonic mean of PC and PQ; 0.0 when both are zero."""
    if pc <= 0.0 and pq <= 0.0:
        return 0.0
    return 2.0 * pc * pq / (pc + pq)


def detected_duplicates(collection: BlockCollection, dataset: ERDataset) -> int:
    """|D_B|: ground-truth pairs co-occurring in at least one block."""
    truth = np.array(list(dataset.truth_pairs), dtype=np.int64).reshape(-1, 2)
    return int(collection.entity_index.co_blocked(truth[:, 0], truth[:, 1]).sum())


def evaluate_blocks(collection: BlockCollection, dataset: ERDataset) -> BlockingQuality:
    """Compute PC, PQ and supporting counts for *collection* on *dataset*."""
    found = detected_duplicates(collection, dataset)
    total = dataset.num_duplicates
    comparisons = collection.aggregate_cardinality
    pc = found / total if total else 0.0
    pq = found / comparisons if comparisons else 0.0
    return BlockingQuality(
        pair_completeness=pc,
        pair_quality=pq,
        detected_duplicates=found,
        total_duplicates=total,
        comparisons=comparisons,
        num_blocks=len(collection),
    )


def delta_pc(baseline: BlockingQuality, other: BlockingQuality) -> float:
    """Relative PC change from *baseline* to *other* (paper Section 4)."""
    if baseline.pair_completeness == 0.0:
        raise ValueError("baseline PC is zero; delta undefined")
    return (
        other.pair_completeness - baseline.pair_completeness
    ) / baseline.pair_completeness


def delta_pq(baseline: BlockingQuality, other: BlockingQuality) -> float:
    """Relative PQ change from *baseline* to *other* (paper Section 4)."""
    if baseline.pair_quality == 0.0:
        raise ValueError("baseline PQ is zero; delta undefined")
    return (other.pair_quality - baseline.pair_quality) / baseline.pair_quality
