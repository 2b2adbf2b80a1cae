"""The argsort dedupe of the shard kernel, kept as the test oracle.

This is the body ``repro.graph.sharding.dedupe_pair_arrays`` had before
it became one in-place sort of a composite ``(pair, position)`` key: an
argsort of the packed ``(src << 31) | dst`` keys, a gather into sorted
order, and a scatter of each pair's edge back to its input position.
Per-edge masses are ``bincount(inverse, weights=pair_mass)``, summed in
input order.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

import numpy as np

from repro.graph.entity_index import pack_pairs, unpack_pairs


def argsort_dedupe(
    src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(edge_src, edge_dst, shared, inverse)``: lexicographic edges,
    their occurrence counts, and every input pair's edge position."""
    packed = pack_pairs(np.asarray(src, np.int64), np.asarray(dst, np.int64))
    order = np.argsort(packed, kind="stable")
    packed_sorted = packed[order]
    boundary = np.ones(packed.size, dtype=bool)
    np.not_equal(packed_sorted[1:], packed_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    edge_src, edge_dst = unpack_pairs(packed_sorted[starts])
    shared = np.diff(np.append(starts, packed.size))
    inverse = np.empty(packed.size, dtype=np.int64)
    inverse[order] = np.cumsum(boundary) - 1
    return edge_src, edge_dst, shared, inverse


def oracle_masses(
    src: np.ndarray, dst: np.ndarray, pair_masses: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """The oracle's edges, shared counts and per-edge sums of each of
    *pair_masses* (one float per input pair), accumulated in input order."""
    edge_src, edge_dst, shared, inverse = argsort_dedupe(src, dst)
    sums = [
        np.bincount(inverse, weights=mass, minlength=edge_src.size)
        for mass in pair_masses
    ]
    return edge_src, edge_dst, shared, sums
