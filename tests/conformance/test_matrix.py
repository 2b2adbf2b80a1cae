"""Differential conformance: every backend vs the python oracle.

One parametrized matrix over every registered (blocker x weighting x
pruning x backend) combination, on a small synthetic clean-clean task and
a dirty task, asserting the retained edge sets are identical to the
``python`` reference backend — the single place backend equivalence is
enforced (superseding per-backend spot checks).  Components registered by
plugins join the matrix automatically because the parameters are read
from the live registries.
"""

from __future__ import annotations

import pytest
from _block_oracles import assert_same_edges

import _matrix
from _matrix import (
    BACKEND_OPTIONS,
    ORACLE,
    matrix_params,
    oracle_edges,
    prepared_blocks,
    run_backend,
)
from repro.core.registry import BACKENDS


def _case_id(param: tuple) -> str:
    return "-".join(str(part) for part in param)


@pytest.mark.parametrize(
    "dataset_name,blocker,weighting,pruning,backend",
    matrix_params(),
    ids=[_case_id(param) for param in matrix_params()],
)
def test_backend_matches_oracle(
    dataset_name, blocker, weighting, pruning, backend
):
    blocks, key_entropy = prepared_blocks(dataset_name, blocker)
    expected = oracle_edges(dataset_name, blocker, weighting, pruning)
    actual = run_backend(
        backend, blocks, key_entropy, weighting=weighting, pruning=pruning
    )
    assert_same_edges(actual, expected)


class TestMatrixShape:
    def test_matrix_covers_every_registered_backend(self):
        backends = {param[4] for param in matrix_params()}
        assert backends == set(BACKENDS.names()) - {ORACLE}

    def test_oracle_is_registered(self):
        assert ORACLE in BACKENDS


class TestParallelWorkerPool:
    """The matrix runs the parallel backend in-process; these spot-check
    the real multi-process pool on one combination per task shape."""

    @pytest.mark.parametrize("dataset_name", sorted(_matrix.DATASETS))
    def test_pool_matches_oracle(self, dataset_name):
        blocks, key_entropy = prepared_blocks(dataset_name, "token")
        expected = oracle_edges(dataset_name, "token", "chi_h", "blast")
        actual = run_backend(
            "parallel",
            blocks,
            key_entropy,
            weighting="chi_h",
            pruning="blast",
            workers=2,
            shard_size=None,
        )
        assert_same_edges(actual, expected)

    def test_matrix_options_pin_the_chunked_mode(self):
        # The matrix must exercise multi-shard merging without a pool.
        assert BACKEND_OPTIONS["parallel"]["workers"] == 1
        assert BACKEND_OPTIONS["parallel"]["shard_size"] is not None
