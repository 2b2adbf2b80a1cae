"""Tests for repro.blocking.base: Block, BlockCollection, build_blocks."""

import pytest

from repro.blocking.base import Block, BlockCollection, build_blocks


class TestBlock:
    def test_clean_clean_comparisons(self):
        b = Block("k", frozenset({0, 1}), frozenset({5, 6, 7}))
        assert b.num_comparisons == 6
        assert b.size == 5

    def test_dirty_comparisons(self):
        b = Block("k", frozenset({0, 1, 2, 3}))
        assert b.num_comparisons == 6
        assert b.size == 4

    def test_clean_clean_pairs_cross_source_only(self):
        b = Block("k", frozenset({0}), frozenset({5, 6}))
        assert set(b.iter_pairs()) == {(0, 5), (0, 6)}

    def test_dirty_pairs_canonical(self):
        b = Block("k", frozenset({3, 1, 2}))
        assert set(b.iter_pairs()) == {(1, 2), (1, 3), (2, 3)}

    def test_profiles_union(self):
        b = Block("k", frozenset({0}), frozenset({5}))
        assert b.profiles == {0, 5}

    def test_singleton_dirty_block_has_no_pairs(self):
        b = Block("k", frozenset({9}))
        assert b.num_comparisons == 0
        assert list(b.iter_pairs()) == []

    def test_iter_pairs_sort_is_cached_and_stable(self):
        b = Block("k", frozenset({3, 1, 2}), frozenset({7, 5}))
        first = list(b.iter_pairs())
        assert first == [(1, 5), (1, 7), (2, 5), (2, 7), (3, 5), (3, 7)]
        # Second enumeration reuses the cached sorted tuples ...
        assert b._pair_order() is b._pair_order()
        assert list(b.iter_pairs()) == first

    def test_sort_cache_does_not_leak_into_identity(self):
        a = Block("k", frozenset({1, 2}), frozenset({5}))
        b = Block("k", frozenset({1, 2}), frozenset({5}))
        list(a.iter_pairs())  # populate a's cache only
        assert a == b
        assert hash(a) == hash(b)
        assert "sorted" not in repr(a)


class TestBlockCollection:
    def test_kind_mismatch_rejected(self):
        dirty_block = Block("k", frozenset({1, 2}))
        with pytest.raises(ValueError, match="kind"):
            BlockCollection([dirty_block], is_clean_clean=True)

    def test_aggregate_cardinality_sums_blocks(self):
        blocks = [
            Block("a", frozenset({0}), frozenset({5, 6})),
            Block("b", frozenset({0, 1}), frozenset({5})),
        ]
        assert BlockCollection(blocks, True).aggregate_cardinality == 4

    def test_blocks_of(self):
        blocks = [
            Block("a", frozenset({0}), frozenset({5})),
            Block("b", frozenset({0}), frozenset({6})),
        ]
        bc = BlockCollection(blocks, True)
        assert bc.entity_index.blocks_of(0).tolist() == [0, 1]
        assert bc.entity_index.blocks_of(5).tolist() == [0]
        assert bc.num_indexed_profiles == 3

    def test_distinct_pairs_removes_redundancy(self):
        blocks = [
            Block("a", frozenset({0}), frozenset({5})),
            Block("b", frozenset({0}), frozenset({5})),
        ]
        assert BlockCollection(blocks, True).distinct_pairs() == {(0, 5)}

    def test_sequence_protocol(self):
        bc = BlockCollection([Block("a", frozenset({1, 2}))], False)
        assert len(bc) == 1
        assert bc[0].key == "a"


class TestIndexBornCollection:
    BLOCKS = [
        Block("a", frozenset({0, 1}), frozenset({5})),
        Block("b", frozenset({1}), frozenset({5, 6})),
    ]

    def _index_born(self) -> BlockCollection:
        return BlockCollection.from_index(
            BlockCollection(self.BLOCKS, True).entity_index
        )

    def test_answers_from_the_index_without_building_blocks(self):
        bc = self._index_born()
        assert len(bc) == 2
        assert bc.aggregate_cardinality == 4
        assert bc.num_indexed_profiles == 4
        index = bc.entity_index
        assert {p: index.blocks_of(p).tolist() for p in (0, 1, 5, 6)} == {
            0: [0], 1: [0, 1], 5: [0, 1], 6: [1]
        }
        assert bc.distinct_pairs() == {(0, 5), (1, 5), (1, 6)}
        assert "blocks=2" in repr(bc)
        assert bc._block_list is None

    def test_block_view_materialises_once_and_equals_the_source(self):
        bc = self._index_born()
        assert list(bc) == self.BLOCKS
        assert bc[1] is bc[1]
        assert bc[-1].key == "b"

    def test_dirty_view(self):
        blocks = [Block("x", frozenset({2, 0})), Block("y", frozenset({7}))]
        bc = BlockCollection.from_index(
            BlockCollection(blocks, False).entity_index
        )
        assert list(bc) == blocks and not bc.is_clean_clean


class TestBuildBlocks:
    def test_clean_clean_drops_one_sided_keys(self):
        keyed = {"both": ({0}, {5}), "left_only": ({0}, set())}
        bc = build_blocks(keyed, is_clean_clean=True)
        assert [b.key for b in bc] == ["both"]

    def test_dirty_drops_singletons(self):
        keyed = {"pair": {0, 1}, "single": {2}}
        bc = build_blocks(keyed, is_clean_clean=False)
        assert [b.key for b in bc] == ["pair"]

    def test_keys_sorted_for_determinism(self):
        keyed = {"zz": {0, 1}, "aa": {2, 3}}
        bc = build_blocks(keyed, is_clean_clean=False)
        assert [b.key for b in bc] == ["aa", "zz"]
