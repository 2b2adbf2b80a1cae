"""Banded LSH indexing of MinHash signatures (Section 3.1.2).

Signatures are split into ``b`` bands of ``r`` rows; two attributes become a
*candidate pair* when at least one band of their signatures is identical.
Only candidate pairs are handed to attribute-match induction, replacing the
quadratic all-pairs similarity pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.lsh.minhash import MinHasher, hash_tokens
from repro.lsh.scurve import estimated_threshold
from repro.schema.attribute_graph import AttributeGraph, corpus_memberships
from repro.schema.partition import AttributeRef

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.corpus import InternedCorpus


class LSHBanding:
    """Bucket signatures by band and emit colliding pairs.

    Parameters
    ----------
    bands:
        Number of bands ``b``.
    rows:
        Rows per band ``r``.  Signatures must have exactly ``b * r`` values.
    """

    def __init__(self, bands: int, rows: int) -> None:
        if bands < 1 or rows < 1:
            raise ValueError("bands and rows must be positive")
        self.bands = bands
        self.rows = rows

    @property
    def num_hashes(self) -> int:
        """Required signature length ``b * r``."""
        return self.bands * self.rows

    @property
    def threshold(self) -> float:
        """The estimated Jaccard threshold of this configuration."""
        return estimated_threshold(self.rows, self.bands)

    def candidate_pairs(
        self,
        signatures: np.ndarray,
        refs: Sequence[AttributeRef],
        clean_clean: bool,
    ) -> np.ndarray:
        """Signature rows colliding in at least one band, as a sorted
        ``(E, 2)`` int64 array of ``(i, j)`` with ``i < j``.

        Each band's buckets are blocks of the attribute graph's shard
        kernel: a row joins one bucket per band, and the pairs sharing a
        bucket are enumerated and deduplicated across bands exactly like
        the token-sharing pairs.  *refs* are the sorted attribute refs of
        the rows; for a clean-clean task only cross-source pairs are
        emitted (same-source pairs are never matched by LMI).
        """
        n, width = signatures.shape
        if width != self.num_hashes:
            raise ValueError(
                f"signature length {width} != bands*rows {self.num_hashes}"
            )
        rows, codes, offset = [], [], 0
        for band in range(self.bands):
            chunk = signatures[:, band * self.rows : (band + 1) * self.rows]
            order = np.lexsort(chunk.T)
            ordered = chunk[order]
            new = np.ones(n, dtype=bool)
            new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
            bucket = np.cumsum(new) - 1
            shared = np.bincount(bucket)[bucket] > 1  # singletons pair nothing
            rows.append(order[shared])
            codes.append(bucket[shared] + offset)
            offset += n
        graph = AttributeGraph.build(
            list(refs), np.concatenate(rows), np.concatenate(codes), clean_clean
        )
        return np.column_stack((graph.src, graph.dst))


def choose_bands(num_hashes: int, threshold: float) -> LSHBanding:
    """The banding of *num_hashes* rows whose S-curve threshold is closest
    to *threshold*.

    Scans every factorization ``num_hashes = b * r`` and picks the one
    minimizing ``|(1/b)^(1/r) - threshold|``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    best: LSHBanding | None = None
    best_gap = float("inf")
    for rows in range(1, num_hashes + 1):
        if num_hashes % rows:
            continue
        bands = num_hashes // rows
        gap = abs(estimated_threshold(rows, bands) - threshold)
        if gap < best_gap:
            best_gap = gap
            best = LSHBanding(bands, rows)
    assert best is not None  # rows=1 always divides num_hashes
    return best


def lsh_candidate_pairs(
    corpus: "InternedCorpus",
    min_token_length: int = 2,
    threshold: float = 0.5,
    num_hashes: int = 150,
    seed: int | None = None,
    banding: LSHBanding | None = None,
) -> np.ndarray:
    """End-to-end LSH step: corpus -> candidate attribute pairs.

    This is the optional pre-processing step of Section 3.1.2, usable in
    front of both LMI and Attribute Clustering.  Signatures are taken over
    the corpus' ``(attribute, token)`` ids; rows and the returned sorted
    ``(E, 2)`` pairs index the attributes in ref order, as
    :class:`~repro.schema.attribute_graph.AttributeGraph` does.  For
    clean-clean inputs only cross-source pairs are returned.

    Parameters
    ----------
    threshold:
        Target Jaccard threshold; ignored when *banding* is given.
    banding:
        Explicit banding configuration (e.g. ``LSHBanding(30, 5)``).
    """
    if banding is None:
        banding = choose_bands(num_hashes, threshold)
    refs, rows, tokens = corpus_memberships(corpus, min_token_length)
    hashes = hash_tokens(tokens, corpus.dictionary.token_of)
    hasher = MinHasher(num_hashes=banding.num_hashes, seed=seed)
    signatures = hasher.row_signatures(rows, hashes, len(refs))
    return banding.candidate_pairs(signatures, refs, corpus.is_clean_clean)
