"""The string LSH step, kept as the test oracle.

``repro.lsh`` takes MinHash signatures over the corpus' ``(attribute,
token)`` ids, hashing each distinct token once, and bands them through the
attribute graph's shard kernel.  Before that, signatures were computed one
token set at a time from token strings, and bands were bucketed in a
Python ``dict`` keyed by each band's bytes.  Those loops live on here and
define the signatures and candidate pairs the array path must reproduce
exactly.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.lsh.banding import LSHBanding, choose_bands
from repro.lsh.minhash import MinHasher, _token_id
from repro.schema.attribute_profile import AttributeProfile
from repro.schema.partition import AttributeRef

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)


def signatures_per_row(
    hasher: MinHasher, token_sets: Sequence[Iterable[str]]
) -> np.ndarray:
    """``hasher``'s signatures, one token set and one string at a time."""
    cache: dict[str, int] = {}
    encoded: list[np.ndarray] = []
    for tokens in token_sets:
        ids = [
            cache[token] if token in cache else cache.setdefault(token, _token_id(token))
            for token in tokens
        ]
        encoded.append(np.asarray(sorted(ids), dtype=np.uint64))

    out = np.empty((len(encoded), hasher.num_hashes), dtype=np.uint64)
    for row, ids in enumerate(encoded):
        if ids.size == 0:
            # Unique per-row sentinels: empty sets never collide with
            # anything (including each other).
            out[row] = _UINT64_MAX - np.uint64(row)
            continue
        hashed = hasher._a[:, None] * ids[None, :] + hasher._b[:, None]
        out[row] = hashed.min(axis=1)
    return out


def banded_pairs(
    banding: LSHBanding,
    signatures: np.ndarray,
    sources: Sequence[int] | None = None,
) -> set[tuple[int, int]]:
    """Rows colliding in at least one band, bucketed by each band's bytes;
    with *sources*, cross-source pairs only."""
    pairs: set[tuple[int, int]] = set()
    for band in range(banding.bands):
        chunk = signatures[:, band * banding.rows : (band + 1) * banding.rows]
        buckets: dict[bytes, list[int]] = {}
        for row in range(signatures.shape[0]):
            buckets.setdefault(chunk[row].tobytes(), []).append(row)
        for members in buckets.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a, b = members[i], members[j]
                    if sources is not None and sources[a] == sources[b]:
                        continue
                    pairs.add((a, b) if a < b else (b, a))
    return pairs


def lsh_candidate_refs(
    profiles1: Sequence[AttributeProfile],
    profiles2: Sequence[AttributeProfile] | None = None,
    threshold: float = 0.5,
    num_hashes: int = 150,
    seed: int | None = None,
    banding: LSHBanding | None = None,
) -> set[tuple[AttributeRef, AttributeRef]]:
    """Profiles -> candidate attribute-ref pairs, through the loops above."""
    all_profiles = list(profiles1) + (list(profiles2) if profiles2 else [])
    if banding is None:
        banding = choose_bands(num_hashes, threshold)
    hasher = MinHasher(num_hashes=banding.num_hashes, seed=seed)
    signatures = signatures_per_row(hasher, [p.tokens for p in all_profiles])
    sources = [p.source for p in all_profiles] if profiles2 is not None else None
    return {
        (all_profiles[i].ref, all_profiles[j].ref)
        for i, j in banded_pairs(banding, signatures, sources)
    }
