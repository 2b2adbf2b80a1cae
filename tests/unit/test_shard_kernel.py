"""Unit tests: the CHI_H shard kernel's grid, composite dedupe and maxima.

The bit-identity properties live in tests/property/test_prop_shard_kernel.py;
these pin the hand-picked corners — the inputs that pick each χ² path and
each sort path — against the python oracle and the argsort dedupe.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from _block_oracles import assert_same_edges
from _parallel_helpers import random_blocks
from _shard_oracles import oracle_masses

from repro.blocking.base import build_blocks
from repro.graph import WeightingScheme
from repro.graph.metablocking import reference_metablocking
from repro.graph.pruning import BlastPruning, WeightNodePruning
from repro.graph.sharding import dedupe_pair_arrays
from repro.graph.vectorized import node_maxima, run_in_process, sharded_metablocking


def _dedupe_with_masses(src, dst, masses):
    edge_src, edge_dst, shared, order, edge_of = dedupe_pair_arrays(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    )
    sums = [
        np.bincount(edge_of, weights=np.asarray(m)[order], minlength=shared.size)
        for m in masses
    ]
    return edge_src, edge_dst, shared, sums


def _assert_matches_oracle(src, dst, masses):
    got = _dedupe_with_masses(src, dst, masses)
    want = oracle_masses(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        [np.asarray(m, dtype=np.float64) for m in masses],
    )
    for column in range(3):
        assert got[column].tolist() == want[column].tolist()
    for got_sum, want_sum in zip(got[3], want[3]):
        assert got_sum.view(np.int64).tolist() == want_sum.view(np.int64).tolist()


class TestCompositeDedupe:
    def test_empty(self):
        edge_src, edge_dst, shared, sums = _dedupe_with_masses([], [], [[], []])
        assert edge_src.size == edge_dst.size == shared.size == 0
        assert all(s.size == 0 for s in sums)

    def test_single_pair(self):
        _assert_matches_oracle([4], [9], [[0.25], [1.5]])

    def test_duplicate_heavy(self):
        rng = np.random.default_rng(5)
        pool = [(0, 1), (0, 2), (3, 7), (5, 6)]
        picks = rng.integers(0, len(pool), 500)
        src, dst = zip(*(pool[k] for k in picks))
        masses = [rng.random(500) * 10.0 ** rng.integers(-6, 6, 500) for _ in "ab"]
        _assert_matches_oracle(src, dst, masses)
        assert _dedupe_with_masses(src, dst, masses)[2].sum() == 500

    def test_spread_near_2_30_takes_the_stable_fallback(self):
        # src and dst each span ~2**30: the box offset alone needs ~60 bits,
        # so with 64 positions (7 bits) the composite key would pass 63.
        rng = np.random.default_rng(11)
        ends = np.array([0, (1 << 30) - 3, 1 << 30], dtype=np.int64)
        src = rng.choice(ends, 64)
        dst = rng.choice(ends + 1, 64)
        span = (int(src.max() - src.min()) + 1) * (int(dst.max() - dst.min()) + 1)
        assert span.bit_length() + src.size.bit_length() > 63
        masses = [rng.random(64) * 10.0 ** rng.integers(-6, 6, 64) for _ in "ab"]
        _assert_matches_oracle(src, dst, masses)

    def test_order_among_equal_pairs_is_input_order(self):
        _, _, _, order, edge_of = dedupe_pair_arrays(
            np.array([2, 1, 2, 1, 2]), np.array([3, 5, 3, 5, 3])
        )
        assert order.tolist() == [1, 3, 0, 2, 4]
        assert edge_of.tolist() == [0, 0, 1, 1, 1]


def _clean_blocks(seed, *, left, right, blocks, largest):
    rng = random.Random(seed)
    return build_blocks(
        {
            f"k{position}": (
                set(rng.sample(range(left), rng.randint(1, largest))),
                set(rng.sample(range(left, left + right), rng.randint(1, largest))),
            )
            for position in range(blocks)
        },
        is_clean_clean=True,
    )


def _key_entropy(key: str) -> float:
    return 1.0 + (sum(map(ord, key)) % 7) / 3.0


def _run_recording_grid(blocks, pruning):
    """``sharded_metablocking`` under CHI_H, and the grid its shards read."""
    seen = []

    def runner(state, plan, collector):
        seen.append(state.chi_grid)
        run_in_process(state, plan, collector)

    retained = sharded_metablocking(
        blocks,
        weighting=WeightingScheme.CHI_H,
        pruning=pruning,
        entropy_boost=False,
        key_entropy=_key_entropy,
        run_shards=runner,
        shard_size=50,
    )
    return retained, seen[0]


# Few big blocks: max |B_i| stays small while the comparisons pile up, so
# the (max |B_i| + 1)**3 grid fits the run.  Many tiny blocks: the other way.
_GRID = {
    "dirty": lambda: random_blocks(3, profiles=60, blocks=12, largest=40),
    "clean": lambda: _clean_blocks(3, left=30, right=30, blocks=10, largest=25),
}
_NO_GRID = {
    "dirty": lambda: random_blocks(4, profiles=10, blocks=40, largest=3),
    "clean": lambda: _clean_blocks(4, left=5, right=5, blocks=40, largest=1),
}


class TestChiSquaredGridChoice:
    @pytest.mark.parametrize("kind", sorted(_GRID))
    @pytest.mark.parametrize("pruning", [BlastPruning(), WeightNodePruning()])
    def test_grid_run_equals_python_oracle(self, kind, pruning):
        blocks = _GRID[kind]()
        index = blocks.entity_index
        side = int(index.node_block_counts.max()) + 1
        assert side**3 <= index.total_comparisons
        retained, grid = _run_recording_grid(blocks, pruning)
        assert grid is not None and grid[0].shape == (side, side, side)
        assert_same_edges(
            retained,
            reference_metablocking(
                blocks,
                weighting=WeightingScheme.CHI_H,
                pruning=pruning,
                key_entropy=_key_entropy,
            ),
        )

    @pytest.mark.parametrize("kind", sorted(_NO_GRID))
    @pytest.mark.parametrize("pruning", [BlastPruning(), WeightNodePruning()])
    def test_per_edge_run_equals_python_oracle(self, kind, pruning):
        blocks = _NO_GRID[kind]()
        index = blocks.entity_index
        assert (int(index.node_block_counts.max()) + 1) ** 3 > index.total_comparisons
        retained, grid = _run_recording_grid(blocks, pruning)
        assert grid is None
        assert_same_edges(
            retained,
            reference_metablocking(
                blocks,
                weighting=WeightingScheme.CHI_H,
                pruning=pruning,
                key_entropy=_key_entropy,
            ),
        )


class TestNodeMaxima:
    def test_equals_scatter_maxima_and_stays_non_negative(self):
        rng = np.random.default_rng(2)
        src = np.sort(rng.integers(0, 30, 200))
        dst = rng.integers(0, 40, 200)
        weights = rng.normal(size=200)
        expected = np.zeros(45)
        np.maximum.at(expected, src, weights)
        np.maximum.at(expected, dst, weights)
        maxima = node_maxima(src, dst, weights, 45)
        assert maxima.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert maxima.min() == 0.0  # isolated ids

    def test_negative_weights_read_zero(self):
        # Id 0's src run holds only negative weights: it reads 0.0 too.
        src, dst = np.array([0, 0, 1]), np.array([2, 3, 3])
        maxima = node_maxima(src, dst, np.array([-1.0, -2.0, 0.5]), 5)
        assert maxima.tolist() == [0.0, 0.5, 0.0, 0.5, 0.0]

    def test_empty(self):
        empty = np.zeros(0, np.int64)
        assert node_maxima(empty, empty, np.zeros(0), 3).tolist() == [0.0] * 3
