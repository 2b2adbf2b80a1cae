"""Tests for Block Purging and Block Filtering."""

import math

import pytest

from _block_oracles import assert_same_index
from repro.blocking import (
    LooselySchemaAwareBlocking,
    TokenBlocking,
    block_filtering,
    block_purging,
)
from repro.blocking.base import Block, BlockCollection
from repro.core.stages import SchemaExtraction


class TestBlockPurging:
    def test_drops_blocks_covering_most_profiles(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        purged = block_purging(blocks, num_profiles=4, max_profile_ratio=0.5)
        # "abram" covers 4/4 profiles > 0.5 -> purged; all others stay.
        assert "abram" not in {b.key for b in purged}
        assert len(purged) == len(blocks) - 1

    def test_ratio_one_keeps_everything(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        purged = block_purging(blocks, num_profiles=4, max_profile_ratio=1.0)
        assert len(purged) == len(blocks)

    def test_max_comparisons_cap(self):
        big = Block("big", frozenset(range(10)), frozenset(range(10, 25)))
        small = Block("small", frozenset({0}), frozenset({10}))
        bc = BlockCollection([big, small], True)
        purged = block_purging(bc, num_profiles=1000, max_comparisons=100)
        assert [b.key for b in purged] == ["small"]

    def test_invalid_ratio_rejected(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        with pytest.raises(ValueError, match=r"max_profile_ratio must be in \(0, 1\]"):
            block_purging(blocks, num_profiles=4, max_profile_ratio=0.0)

    def test_invalid_profile_count_rejected(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        with pytest.raises(ValueError, match="num_profiles must be positive"):
            block_purging(blocks, num_profiles=0)

    def test_keeps_zero_comparison_blocks_it_does_not_purge(self):
        # Purging judges size and cardinality only; a singleton dirty
        # block passes both and survives.
        bc = BlockCollection(
            [Block("one", frozenset({3})), Block("two", frozenset({1, 2}))],
            False,
        )
        purged = block_purging(bc, num_profiles=10, max_comparisons=None)
        assert list(purged) == list(bc)

    def test_empty_collection(self):
        for clean in (True, False):
            purged = block_purging(BlockCollection([], clean), num_profiles=5)
            assert len(purged) == 0 and list(purged) == []
            assert purged.is_clean_clean is clean


class TestBlockFiltering:
    def test_never_increases_comparisons(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        filtered = block_filtering(blocks, ratio=0.8)
        assert filtered.aggregate_cardinality <= blocks.aggregate_cardinality

    def test_ratio_one_is_identity_on_cardinality(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        filtered = block_filtering(blocks, ratio=1.0)
        assert filtered.aggregate_cardinality == blocks.aggregate_cardinality

    def test_keeps_profiles_in_their_smallest_blocks(self):
        # profile 0 sits in one small and one large block; at ratio 0.5 it
        # must remain only in the small one.
        small = Block("small", frozenset({0}), frozenset({10}))
        large = Block("large", frozenset({0, 1, 2}), frozenset({10, 11, 12}))
        bc = BlockCollection([small, large], True)
        filtered = block_filtering(bc, ratio=0.5)
        by_key = {b.key: b for b in filtered}
        assert 0 in by_key["small"].profiles
        assert 0 not in by_key.get("large", Block("x", frozenset())).profiles

    def test_drops_blocks_left_without_comparisons(self):
        small1 = Block("s1", frozenset({0}), frozenset({10}))
        small2 = Block("s2", frozenset({1}), frozenset({10}))
        large = Block("large", frozenset({0, 1}), frozenset({10, 11, 12}))
        bc = BlockCollection([small1, small2, large], True)
        filtered = block_filtering(bc, ratio=0.5)
        # 11 and 12 appear only in "large"; they are retained there, but 0
        # and 1 left it, so no left-side remains -> block dropped.
        assert "large" not in {b.key for b in filtered}

    def test_dirty_mode(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        filtered = block_filtering(blocks, ratio=0.5)
        assert filtered.aggregate_cardinality < blocks.aggregate_cardinality
        assert not filtered.is_clean_clean

    def test_invalid_ratio_rejected(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        with pytest.raises(ValueError, match=r"ratio must be in \(0, 1\]"):
            block_filtering(blocks, ratio=1.5)

    def test_keep_count_is_the_float64_ceil(self):
        """Documented contract: ``ceil(ratio * |B_i|)`` is taken on the
        float64 product, as ``math.ceil`` always did.  0.28 * 25 is
        7.000000000000001 in float64, so a profile in 25 blocks stays in
        8 of them, not 7; the paper's 0.8 has no such count below 400
        (0.8 * 15 == 12.0 exactly).  Changing the rule moves goldens."""
        assert math.ceil(0.28 * 25) == 8
        assert math.ceil(0.8 * 15) == 12
        # Profile 0 sits in 25 equal-size blocks; position breaks the tie.
        bc = BlockCollection(
            [Block(f"k{i:02d}", frozenset({0, i + 1})) for i in range(25)],
            False,
        )
        filtered = block_filtering(bc, ratio=0.28)
        assert [b.key for b in filtered] == [f"k{i:02d}" for i in range(8)]
        assert filtered.entity_index.node_block_counts[0] == 8
        # ... and at the default 0.8, 15 blocks keep exactly 12.
        first_15 = BlockCollection([b for b in bc if b.key < "k15"], False)
        assert len(block_filtering(first_15, ratio=0.8)) == 12

    def test_ratio_one_returns_an_equal_collection(self, figure1_clean_clean):
        blocks = TokenBlocking().build(figure1_clean_clean)
        filtered = block_filtering(blocks, ratio=1.0)
        assert list(filtered) == list(blocks)
        assert_same_index(filtered.entity_index, blocks.entity_index)

    def test_empty_collection(self):
        for clean in (True, False):
            filtered = block_filtering(BlockCollection([], clean))
            assert len(filtered) == 0 and list(filtered) == []
            assert filtered.aggregate_cardinality == 0

    def test_profile_whose_every_block_is_dropped(self):
        # 2 is only in "big"; it is retained there, but 0 and 1 leave for
        # their smaller blocks, so "big" shrinks to one member and goes.
        bc = BlockCollection(
            [
                Block("a", frozenset({0, 3})),
                Block("b", frozenset({1, 4})),
                Block("big", frozenset({0, 1, 2})),
            ],
            False,
        )
        filtered = block_filtering(bc, ratio=0.5)
        assert [b.key for b in filtered] == ["a", "b"]
        assert filtered.entity_index.blocks_of(2).size == 0
        assert filtered.num_indexed_profiles == 4
        assert filtered.entity_index.node_block_counts.tolist() == [1, 1, 0, 1, 1]


class TestEntityIndexSurvivesCachePop:
    """Benchmarks drop ``__dict__["entity_index"]`` to time a cold
    lowering; the index is the collection's stored form, so that pop is
    harmless and every collection answers again, equally."""

    def test_blocker_purged_and_filtered_collections(self, figure1_clean_clean):
        partitioning = SchemaExtraction().extract(figure1_clean_clean)
        built = LooselySchemaAwareBlocking(partitioning).build(
            figure1_clean_clean
        )
        purged = block_purging(built, num_profiles=4, max_profile_ratio=1.0)
        filtered = block_filtering(purged, ratio=0.8)
        for collection in (built, purged, filtered):
            before = collection.entity_index
            collection.__dict__.pop("entity_index", None)
            assert_same_index(collection.entity_index, before)
            assert len(collection) == before.num_blocks

    def test_block_born_keeps_its_index(self):
        bc = BlockCollection([Block("a", frozenset({0, 1}))], False)
        before = bc.entity_index
        bc.__dict__.pop("entity_index", None)
        assert bc.entity_index is before
