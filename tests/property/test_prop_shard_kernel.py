"""Property-based bit-identity of the shard kernel's two table tricks.

CHI_H's statistic depends on an edge only through the small integers
``(shared, |B_i|, |B_j|)``, so a run may tabulate it once
(``_chi_squared_grid``) and gather per edge: every cell must equal the
per-edge evaluation down to the last bit, value and ``below`` mask alike.

``dedupe_pair_arrays`` sorts one composite ``(pair, position)`` key in
place; the argsort dedupe it replaced (``tests/_shard_oracles.py``) is
the oracle for its edges, shared counts and — summed over its
``(order, edge_of)`` — every per-edge float mass, bit for bit.
"""

import numpy as np
from _shard_oracles import oracle_masses
from hypothesis import assume, given, settings, strategies as st

from repro.blocking.base import build_blocks
from repro.graph import WeightingScheme
from repro.graph.sharding import (
    ShardWorkspace,
    dedupe_pair_arrays,
    enumerate_shard_pairs,
    plan_shards,
    shard_edge_arrays,
)
from repro.graph.vectorized import (
    _chi_squared,
    _chi_squared_grid,
    compute_edge_weights,
)


def bits(values: np.ndarray) -> list[int]:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def count_triples(draw):
    """A grid size, a block total and edges' ``(shared, |B_i|, |B_j|)``
    anywhere on the grid (infeasible cells included: the grid holds them)."""
    max_blocks = draw(st.integers(0, 12))
    total = draw(st.integers(1, 40) | st.integers(1, 10**7))
    cell = st.integers(0, max_blocks)
    triples = draw(st.lists(st.tuples(cell, cell, cell), min_size=1, max_size=60))
    shared, blocks_i, blocks_j = (
        np.array(column, dtype=np.int64) for column in zip(*triples)
    )
    return max_blocks, total, shared, blocks_i, blocks_j


class TestChiSquaredGrid:
    @given(count_triples())
    def test_grid_cells_equal_per_edge_bit_for_bit(self, case):
        max_blocks, total, shared, blocks_i, blocks_j = case
        chi, below = _chi_squared_grid(max_blocks, total)
        per_edge = np.empty(shared.size)
        _, per_edge_below = _chi_squared(
            shared, blocks_i, blocks_j, total, ShardWorkspace(), per_edge
        )
        assert bits(chi[shared, blocks_i, blocks_j]) == bits(per_edge)
        assert below[shared, blocks_i, blocks_j].tolist() == per_edge_below.tolist()

    @given(count_triples(), st.integers(0, 2**32 - 1))
    def test_chi_h_weights_equal_with_and_without_grid(self, case, seed):
        max_blocks, total, shared, blocks_i, blocks_j = case
        assume(max_blocks >= 1)
        shared = np.maximum(shared, 1)  # every edge shares a block
        entropy = np.random.default_rng(seed).random(shared.size) * shared
        weights = [
            compute_edge_weights(
                WeightingScheme.CHI_H,
                shared=shared,
                blocks_i=blocks_i,
                blocks_j=blocks_j,
                num_blocks=total,
                entropy_mass=entropy,
                chi_grid=grid,
            ).copy()
            for grid in (None, _chi_squared_grid(max_blocks, total))
        ]
        assert bits(weights[1]) == bits(weights[0])


@st.composite
def pair_arrays(draw):
    """Parallel pair arrays drawn from a small pool (so duplicates abound),
    ids spread up to 2**30 apart (so the 63-bit fallback runs too)."""
    spread = draw(st.sampled_from([1, 16, 1 << 20, 1 << 30]))
    ids = st.integers(0, spread)
    pool = draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=12))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=80))
    pairs = np.array([pool[k] for k in picks], dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def mixed_masses(seed: int, size: int) -> list[np.ndarray]:
    """Two per-pair float arrays spanning many magnitudes: any change of
    summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    return [rng.random(size) * 10.0 ** rng.integers(-9, 9, size) for _ in "ab"]


def check_against_oracle(src, dst, masses, workspace=None) -> None:
    edge_src, edge_dst, shared, order, edge_of = dedupe_pair_arrays(
        src, dst, workspace
    )
    sums = [
        np.bincount(edge_of, weights=mass[order], minlength=edge_src.size)
        for mass in masses
    ]
    want_src, want_dst, want_shared, want_sums = oracle_masses(src, dst, masses)
    assert edge_src.tolist() == want_src.tolist()
    assert edge_dst.tolist() == want_dst.tolist()
    assert shared.tolist() == want_shared.tolist()
    for got, want in zip(sums, want_sums):
        assert bits(got) == bits(want)


class TestCompositeDedupe:
    @given(pair_arrays(), st.integers(0, 2**32 - 1))
    def test_equals_argsort_oracle(self, pairs, seed):
        src, dst = pairs
        check_against_oracle(src, dst, mixed_masses(seed, src.size))

    @settings(max_examples=25)
    @given(st.lists(pair_arrays(), min_size=1, max_size=4))
    def test_one_workspace_across_inputs(self, inputs):
        workspace = ShardWorkspace(capacity=16)
        for position, (src, dst) in enumerate(inputs):
            check_against_oracle(
                src, dst, mixed_masses(position, src.size), workspace
            )


NUM_PROFILES = 12

collections = st.one_of(
    st.dictionaries(
        keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
        values=st.sets(st.integers(0, NUM_PROFILES - 1), min_size=2, max_size=6),
        min_size=1,
        max_size=10,
    ).map(lambda keyed: build_blocks(keyed, is_clean_clean=False)),
    st.dictionaries(
        keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
        values=st.tuples(
            st.sets(st.integers(0, 5), min_size=1, max_size=4),
            st.sets(st.integers(6, 11), min_size=1, max_size=4),
        ),
        min_size=1,
        max_size=10,
    ).map(lambda keyed: build_blocks(keyed, is_clean_clean=True)),
)


class TestShardMasses:
    @settings(max_examples=60)
    @given(collections, st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_shard_masses_equal_the_oracle(self, blocks, num_shards, seed):
        # Both masses of every shard, from its runs' block values, against
        # the oracle summing the same per-pair values in pair order.
        index = blocks.entity_index.shardable
        entropies = np.random.default_rng(seed).random(index.num_blocks) * 3.0
        for lo, hi in plan_shards(index, num_shards=num_shards):
            src, dst, run_block, run_length = enumerate_shard_pairs(index, lo, hi)
            pair_block = np.repeat(run_block, run_length)
            masses = [index.block_arcs_share[pair_block], entropies[pair_block]]
            want = oracle_masses(src.copy(), dst.copy(), masses)
            got = shard_edge_arrays(
                index, lo, hi, block_entropies=entropies, need_arcs=True
            )
            assert got.src.tolist() == want[0].tolist()
            assert got.dst.tolist() == want[1].tolist()
            assert got.shared.tolist() == want[2].tolist()
            assert bits(got.arcs_mass) == bits(want[3][0])
            assert bits(got.entropy_mass) == bits(want[3][1])
