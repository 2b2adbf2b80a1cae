"""Array helpers shared by the columnar layers."""

import numpy as np


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D integer array, ascending.

    Equals a flagless ``np.unique(keys)``, which NumPy >= 2.3 answers by
    hashing — several times slower than sort + neighbour compare on the
    ~180k packed int64 keys the blockers deduplicate.
    """
    keys = np.sort(keys)
    if keys.size == 0:
        return keys
    return keys[np.r_[True, keys[1:] != keys[:-1]]]


def sorted_contains(keys: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """Whether each of *probes* occurs in the ascending 1-D *keys*.

    A binary search per probe: ``np.isin`` would sort or hash both sides
    again, several times slower when *keys* is already in order.
    """
    if keys.size == 0:
        return np.zeros(probes.shape, dtype=bool)
    at = np.minimum(np.searchsorted(keys, probes), keys.size - 1)
    return keys[at] == probes


def stable_sort(keys: np.ndarray, order: np.ndarray | None = None) -> np.ndarray:
    """Sort non-negative int64 *keys* in place, ties in input order; return
    the input positions in sorted order (in *order*): one SIMD sort of
    ``key << b | position``, or a stable argsort if that would pass 63 bits."""
    order = np.empty_like(keys) if order is None else order
    bits = keys.size.bit_length()
    if int(keys.max(initial=0)).bit_length() + bits <= 63:
        keys <<= bits
        keys |= np.arange(keys.size, dtype=np.int64)
        keys.sort()
        np.bitwise_and(keys, (1 << bits) - 1, out=order)
        keys >>= bits
    else:
        order[:] = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
    return order
