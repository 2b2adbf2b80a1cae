"""Tests for the CSR entity index (repro.graph.entity_index)."""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.blocking import TokenBlocking
from repro.blocking.base import Block, BlockCollection
from repro.graph.sharding import enumerate_shard_pairs


def _enumerate_all(collection: BlockCollection):
    """Every comparison as one shard, the whole id space: ``(src, dst,
    block)`` per pair."""
    index = collection.entity_index
    src, dst, run_block, run_length = enumerate_shard_pairs(
        index, 0, index.node_block_counts.size
    )
    return src, dst, np.repeat(run_block, run_length)


def _clean_collection() -> BlockCollection:
    return BlockCollection(
        [
            Block("a", frozenset({0, 1}), frozenset({5, 6})),
            Block("b", frozenset({1}), frozenset({6})),
            Block("empty", frozenset({2}), frozenset()),  # 0 comparisons
        ],
        True,
    )


def _dirty_collection() -> BlockCollection:
    return BlockCollection(
        [
            Block("x", frozenset({3, 1, 0})),
            Block("y", frozenset({2, 3})),
        ],
        False,
    )


class TestLayout:
    def test_clean_clean_csr_arrays(self):
        index = _clean_collection().entity_index
        assert index.num_blocks == 3
        assert index.keys == ("a", "b", "empty")
        assert index.block_ptr.tolist() == [0, 4, 6, 7]
        # Left members sorted, then right members sorted.
        assert index.entity_ids.tolist() == [0, 1, 5, 6, 1, 6, 2]
        assert index.block_split.tolist() == [2, 5, 7]
        assert index.block_comparisons.tolist() == [4, 1, 0]

    def test_dirty_split_equals_block_end(self):
        index = _dirty_collection().entity_index
        assert index.block_ptr.tolist() == [0, 3, 5]
        assert index.block_split.tolist() == [3, 5]
        assert index.entity_ids.tolist() == [0, 1, 3, 2, 3]
        assert index.block_comparisons.tolist() == [3, 1]

    def test_node_block_counts_match_profile_block_sets(self):
        for collection in (_clean_collection(), _dirty_collection()):
            index = collection.entity_index
            expected = Counter(
                profile for block in collection for profile in block.profiles
            )
            for profile, count in expected.items():
                assert int(index.node_block_counts[profile]) == count
            assert index.num_indexed_profiles == len(expected)
            assert index.total_comparisons == collection.aggregate_cardinality

    def test_index_is_cached_on_the_collection(self):
        collection = _dirty_collection()
        assert collection.entity_index is collection.entity_index

    def test_empty_collection(self):
        index = BlockCollection([], False).entity_index
        assert index.num_blocks == 0
        src, dst, block = _enumerate_all(BlockCollection([], False))
        assert src.size == dst.size == block.size == 0
        assert index.distinct_pair_arrays()[0].size == 0


class TestPairEnumeration:
    def test_matches_block_iter_pairs(self, figure1_dirty):
        for collection in (
            TokenBlocking().build(figure1_dirty),
            _clean_collection(),
        ):
            src, dst, pair_block = _enumerate_all(collection)
            # Same pairs, same order: block-major, iter_pairs() within.
            expected = [
                (pair, position)
                for position, block in enumerate(collection)
                for pair in block.iter_pairs()
            ]
            assert expected == list(
                zip(zip(src.tolist(), dst.tolist()), pair_block.tolist())
            )

    def test_block_major_order_and_canonical_pairs(self):
        src, dst, pair_block = _enumerate_all(_clean_collection())
        assert pair_block.tolist() == sorted(pair_block.tolist())
        assert np.all(src < dst)

    def test_distinct_pair_arrays_sorted_unique(self):
        collection = _clean_collection()
        src, dst = collection.entity_index.distinct_pair_arrays()
        pairs = list(zip(src.tolist(), dst.tolist()))
        assert pairs == sorted(set(pairs))
        assert set(pairs) == collection.distinct_pairs()

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 64])
    def test_unrank_combinations_bijective(self, n):
        # One dirty block of n members: rank q of the enumeration is the
        # q-th pair of itertools.combinations, each exactly once.
        block = BlockCollection([Block("k", frozenset(range(n)))], False)
        src, dst, _ = _enumerate_all(block)
        assert list(zip(src.tolist(), dst.tolist())) == list(
            itertools.combinations(range(n), 2)
        )


class TestStreaming:
    def test_iter_distinct_pairs_streams_sorted(self):
        collection = _dirty_collection()
        iterator = collection.iter_distinct_pairs()
        assert next(iterator) == (0, 1)
        rest = list(iterator)
        assert rest == [(0, 3), (1, 3), (2, 3)]
        assert collection.count_distinct_pairs() == 4
