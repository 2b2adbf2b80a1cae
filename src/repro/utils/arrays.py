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
