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
