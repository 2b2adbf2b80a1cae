"""Tests for the incremental block index (repro.streaming.index)."""

import numpy as np
import pytest

from repro.data import EntityProfile
from repro.schema.partition import AttributePartitioning
from repro.streaming import IncrementalBlockIndex


def profile(pid: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(pid, {"name": text})


def index_state(index: IncrementalBlockIndex) -> dict:
    """A comparable snapshot of the index's observable state."""
    return {
        key: tuple(
            None if side is None else side.tolist()
            for side in index.posting(key).arrays()
        )
        for key in index.keys()
    }


class TestUpsert:
    def test_upsert_indexes_tokens(self):
        index = IncrementalBlockIndex()
        node = index.upsert(profile("a", "john abram"))
        assert index.num_profiles == 1
        assert index.keys_of(node) == frozenset({"john", "abram"})
        assert index.node_block_count(node) == 2
        assert index.total_block_assignments == 2

    def test_min_token_length_respected(self):
        index = IncrementalBlockIndex(min_token_length=5)
        node = index.upsert(profile("a", "john abram"))
        assert index.keys_of(node) == frozenset({"abram"})

    def test_upsert_same_profile_is_a_noop(self):
        index = IncrementalBlockIndex()
        node = index.upsert(profile("a", "john"))
        version = index.version
        assert index.upsert(profile("a", "john")) == node
        assert index.version == version

    def test_upsert_replaces_changed_keys(self):
        index = IncrementalBlockIndex()
        node = index.upsert(profile("a", "john abram"))
        index.upsert(profile("b", "john smith"))
        index.upsert(profile("a", "jon abram"))  # "john" -> "jon"
        assert index.keys_of(node) == frozenset({"jon", "abram"})
        assert index.posting("john").left.tolist() == [index.node_of("b")]

    def test_tokenless_profile_is_live_but_unindexed(self):
        index = IncrementalBlockIndex(min_token_length=100)
        node = index.upsert(profile("a", "john"))
        assert index.num_profiles == 1
        assert index.keys_of(node) == frozenset()
        assert index.num_blocks == 0

    def test_dirty_index_rejects_source_one(self):
        index = IncrementalBlockIndex()
        with pytest.raises(ValueError, match="single source"):
            index.upsert(profile("a", "john"), source=1)

    def test_clean_clean_sides_are_separate(self):
        index = IncrementalBlockIndex(clean_clean=True)
        a = index.upsert(profile("a", "abram"), source=0)
        b = index.upsert(profile("b", "abram"), source=1)
        posting = index.posting("abram")
        assert posting.left.tolist() == [a] and posting.right.tolist() == [b]
        assert posting.num_comparisons == 1

    def test_same_id_distinct_per_source(self):
        index = IncrementalBlockIndex(clean_clean=True)
        a = index.upsert(profile("x", "abram"), source=0)
        b = index.upsert(profile("x", "smith"), source=1)
        assert a != b
        assert index.node_of("x", 0) == a
        assert index.node_of("x", 1) == b


class TestDelete:
    def test_delete_removes_memberships(self):
        index = IncrementalBlockIndex()
        index.upsert(profile("a", "john abram"))
        index.upsert(profile("b", "john smith"))
        assert index.delete("a")
        assert index.num_profiles == 1
        assert "abram" not in index
        assert index.posting("john").left.tolist() == [index.node_of("b")]

    def test_delete_unknown_returns_false(self):
        index = IncrementalBlockIndex()
        version = index.version
        assert not index.delete("ghost")
        assert index.version == version

    def test_delete_twice_returns_false(self):
        index = IncrementalBlockIndex()
        index.upsert(profile("a", "john"))
        assert index.delete("a")
        assert not index.delete("a")

    def test_deleted_node_is_not_resolvable(self):
        index = IncrementalBlockIndex()
        index.upsert(profile("a", "john"))
        index.delete("a")
        with pytest.raises(KeyError):
            index.node_of("a")


class TestUpsertDeleteUpsertIdempotence:
    def test_state_identical_to_single_upsert(self):
        reference = IncrementalBlockIndex()
        reference.upsert(profile("a", "john abram"))
        reference.upsert(profile("b", "abram smith"))

        cycled = IncrementalBlockIndex()
        cycled.upsert(profile("a", "john abram"))
        cycled.upsert(profile("b", "abram smith"))
        cycled.delete("a")
        cycled.upsert(profile("a", "john abram"))

        assert index_state(cycled) == index_state(reference)
        assert cycled.num_profiles == reference.num_profiles
        assert cycled.total_block_assignments == reference.total_block_assignments

    def test_node_id_is_stable_across_the_cycle(self):
        index = IncrementalBlockIndex()
        node = index.upsert(profile("a", "john"))
        index.delete("a")
        assert index.upsert(profile("a", "john")) == node

    def test_cycle_with_changed_attributes_keeps_the_id(self):
        index = IncrementalBlockIndex()
        node = index.upsert(profile("a", "john"))
        index.delete("a")
        assert index.upsert(profile("a", "jon smith")) == node
        assert index.keys_of(node) == frozenset({"jon", "smith"})


class TestSchemaAwareKeys:
    def test_keys_are_cluster_disambiguated(self):
        partitioning = AttributePartitioning(
            clusters=[[(0, "name")]], glue=[], entropies={1: 1.5}
        )
        index = IncrementalBlockIndex(partitioning=partitioning)
        node = index.upsert(profile("a", "abram"))
        assert index.keys_of(node) == frozenset({"abram#1"})
        assert index.key_entropy("abram#1") == 1.5

    def test_entropy_cache_invalidated_on_partitioning_swap(self):
        partitioning = AttributePartitioning(
            clusters=[[(0, "name")]], glue=[], entropies={1: 1.5}
        )
        index = IncrementalBlockIndex(partitioning=partitioning)
        index.upsert(profile("a", "abram"))
        assert index.key_entropy("abram#1") == 1.5  # populates the cache
        index.partitioning = AttributePartitioning(
            clusters=[[(0, "name")]], glue=[], entropies={1: 2.5}
        )
        assert index.key_entropy("abram#1") == 2.5

    def test_unclustered_attribute_falls_into_glue(self):
        partitioning = AttributePartitioning(
            clusters=[[(0, "name")]], glue=[]
        )
        index = IncrementalBlockIndex(partitioning=partitioning)
        node = index.upsert(
            EntityProfile.from_dict("a", {"other": "abram"})
        )
        assert index.keys_of(node) == frozenset({"abram#0"})


class TestPostingArrays:
    def test_arrays_sorted_and_cached_until_mutation(self):
        index = IncrementalBlockIndex()
        index.upsert(profile("b", "abram"))
        index.upsert(profile("a", "abram"))
        posting = index.posting("abram")
        left, right = posting.arrays()
        assert right is None
        assert left.tolist() == sorted(posting.left)
        assert posting.arrays()[0] is left  # a field read
        members = left.tolist()
        index.upsert(profile("c", "abram"))
        assert posting.arrays()[0] is not left  # replaced on write
        assert left.tolist() == members  # the old array is never edited
        assert np.all(np.diff(posting.arrays()[0]) > 0)

    def test_arrays_handed_out_never_change(self):
        index = IncrementalBlockIndex()
        seen = []
        for step, pid in enumerate("abcdefghij"):
            index.upsert(profile(pid, "abram"))
            if step % 3 == 2:
                index.delete("b")  # a copy without node 1 ...
            elif step % 3 == 0 and step:
                index.upsert(profile("b", "abram"))  # ... and back in order
            left = index.posting("abram").left
            seen.append((left, left.tolist()))
        for left, members in seen:
            assert left.tolist() == members
        assert seen[-1][1] == sorted(seen[-1][1])

    def test_revive_and_delete_keep_members_sorted_and_counted(self):
        index = IncrementalBlockIndex(clean_clean=True)
        for pid in ("a", "b", "c"):
            index.upsert(profile(pid, "abram"), source=0)
        index.upsert(profile("z", "abram smith"), source=1)
        index.delete("a")
        index.delete("b")
        assert index.posting("abram").left.tolist() == [2]
        assert index.upsert(profile("b", "abram")) == 1  # revived in place
        posting = index.posting("abram")
        assert posting.left.tolist() == [1, 2]
        assert posting.right.tolist() == [3]
        kid = index.key_dictionary.id_of("abram")
        assert index.key_member_counts[:, kid].tolist() == [2, 1]
        assert index.node_key_counts[:4].tolist() == [0, 1, 1, 2]

    def test_validation_of_ratios(self):
        with pytest.raises(ValueError, match="purging_ratio"):
            IncrementalBlockIndex(purging_ratio=0.0)
        with pytest.raises(ValueError, match="filtering_ratio"):
            IncrementalBlockIndex(filtering_ratio=1.5)
