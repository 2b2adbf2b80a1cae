"""Unit tests for the shared array helpers."""

import numpy as np
import pytest

from repro.utils.arrays import sorted_unique


@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, 3, dtype=np.int64),
        np.array([5, -1, 5, 2**62, 0, -1], dtype=np.int64),
        np.random.default_rng(0).integers(0, 50, 1_000),
        (np.random.default_rng(1).integers(0, 2**31, 5_000) << 31)
        | np.random.default_rng(2).integers(0, 40, 5_000),
    ],
    ids=["empty", "singleton", "all-equal", "mixed", "random-dense", "random-packed"],
)
def test_sorted_unique_equals_np_unique(keys):
    before = keys.copy()
    out = sorted_unique(keys)
    expected = np.unique(keys)
    assert out.dtype == expected.dtype
    assert np.array_equal(out, expected)
    assert np.array_equal(keys, before)  # the input is not sorted in place
