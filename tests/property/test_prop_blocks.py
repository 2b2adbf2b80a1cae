"""Property-based tests: block collections and their invariants.

Random dirty block collections are generated as key -> member-set mappings;
the invariants cover comparison accounting, purging/filtering monotonicity,
and the redundancy-free guarantee of meta-blocking.
"""

import numpy as np
from hypothesis import given, strategies as st

from repro.blocking.base import BlockCollection, build_blocks
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.graph import BlockingGraph, MetaBlocker, WeightingScheme, compute_weights

NUM_PROFILES = 12

keyed_blocks = st.dictionaries(
    keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
    values=st.sets(st.integers(0, NUM_PROFILES - 1), min_size=2, max_size=6),
    min_size=1,
    max_size=10,
)


def _collection(keyed) -> BlockCollection:
    return build_blocks(keyed, is_clean_clean=False)


class TestAccounting:
    @given(keyed_blocks)
    def test_aggregate_cardinality_equals_sum(self, keyed):
        collection = _collection(keyed)
        assert collection.aggregate_cardinality == sum(
            b.num_comparisons for b in collection
        )

    @given(keyed_blocks)
    def test_profile_block_sets_cover_blocks(self, keyed):
        collection = _collection(keyed)
        index = collection.entity_index
        for profile in np.flatnonzero(index.node_block_counts).tolist():
            for pos in index.blocks_of(profile).tolist():
                assert profile in collection[pos].profiles

    @given(keyed_blocks)
    def test_distinct_pairs_canonical_and_bounded(self, keyed):
        collection = _collection(keyed)
        pairs = collection.distinct_pairs()
        assert all(i < j for i, j in pairs)
        assert len(pairs) <= collection.aggregate_cardinality


class TestPurgingFiltering:
    @given(keyed_blocks, st.floats(min_value=0.1, max_value=1.0))
    def test_purging_never_adds_comparisons(self, keyed, ratio):
        collection = _collection(keyed)
        purged = block_purging(collection, NUM_PROFILES, max_profile_ratio=ratio)
        assert purged.aggregate_cardinality <= collection.aggregate_cardinality
        assert len(purged) <= len(collection)

    @given(keyed_blocks, st.floats(min_value=0.1, max_value=1.0))
    def test_filtering_never_adds_comparisons(self, keyed, ratio):
        collection = _collection(keyed)
        filtered = block_filtering(collection, ratio=ratio)
        assert filtered.aggregate_cardinality <= collection.aggregate_cardinality

    @given(keyed_blocks)
    def test_filtering_keeps_pairs_subset(self, keyed):
        collection = _collection(keyed)
        filtered = block_filtering(collection, ratio=0.7)
        assert filtered.distinct_pairs() <= collection.distinct_pairs()

    @given(keyed_blocks)
    def test_filtered_blocks_still_imply_comparisons(self, keyed):
        filtered = block_filtering(_collection(keyed), ratio=0.5)
        assert all(b.num_comparisons >= 1 for b in filtered)


class TestGraphInvariants:
    @given(keyed_blocks)
    def test_edges_match_distinct_pairs(self, keyed):
        collection = _collection(keyed)
        graph = BlockingGraph(collection)
        assert {e for e, _ in graph.edges()} == collection.distinct_pairs()

    @given(keyed_blocks)
    def test_shared_blocks_bounded_by_node_blocks(self, keyed):
        graph = BlockingGraph(_collection(keyed))
        for (i, j), stats in graph.edges():
            assert stats.shared_blocks <= min(
                graph.node_blocks[i], graph.node_blocks[j]
            )

    @given(keyed_blocks)
    def test_weights_nonnegative_all_schemes(self, keyed):
        graph = BlockingGraph(_collection(keyed))
        for scheme in WeightingScheme:
            weights = compute_weights(graph, scheme)
            assert all(w >= 0.0 for w in weights.values())


class TestMetaBlockingInvariants:
    @given(keyed_blocks)
    def test_output_is_redundancy_free_subset(self, keyed):
        collection = _collection(keyed)
        out = MetaBlocker().run(collection)
        assert out.aggregate_cardinality == len(out)
        assert out.distinct_pairs() <= collection.distinct_pairs()

    @given(keyed_blocks)
    def test_never_more_comparisons_than_input(self, keyed):
        collection = _collection(keyed)
        out = MetaBlocker().run(collection)
        assert out.aggregate_cardinality <= max(
            1, collection.aggregate_cardinality
        )
