"""Property-based bit-identity of coded block keys.

The interned blockers order their blocks by integer key codes
(``rank[term] * modulus + suffix_rank[suffix]``) instead of sorting key
strings, keep the codes through purging and filtering, and gather
per-cluster entropies by code.  Each of those must agree exactly with the
string path of ``tests/_blocker_oracles.py``.  The data is adversarial
for the order: prefix chains (``ab`` < ``ab1`` < ``ab10`` < ``ab2`` <
``abc``), digits against letters, and attribute clusters 1, 2, 10, 11 and
100, whose key strings sort ``#1 < #10 < #100 < #11 < #2``.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from _block_oracles import (
    assert_bit_identical,
    assert_same_index,
    oracle_block_filtering,
    oracle_block_purging,
)
from _blocker_oracles import string_blocks
from repro.blocking._interned import group_assignments
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.schema_aware import (
    LooselySchemaAwareBlocking,
    make_key_entropy,
)
from repro.blocking.standard import StandardBlocking
from repro.blocking.suffix_array import SuffixArrayBlocking
from repro.blocking.token import TokenBlocking
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.graph.entity_index import CodedKeys, EntityIndex
from repro.schema.partition import AttributePartitioning
from repro.streaming.index import IncrementalBlockIndex
from repro.streaming.views import ExactStreamView

#: Attribute ``c<k>`` sits in cluster *k*; ``other`` falls into the glue.
CLUSTERS = (1, 2, 10, 11, 100)
ATTRIBUTES = tuple(f"c{k}" for k in CLUSTERS) + ("other",)
WORDS = ("ab", "ab1", "ab10", "ab2", "abc", "a", "b", "10", "100", "2",
         "9z", "z9", "zz", "a1b")

profiles = st.builds(
    lambda pid, pairs: EntityProfile(pid, tuple(pairs)),
    pid=st.uuids().map(str),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(ATTRIBUTES),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
                " ".join
            ),
        ),
        max_size=5,
    ),
)


def _unique_by_id(items):
    return list({p.profile_id: p for p in reversed(items)}.values())[::-1]


profile_lists = st.lists(profiles, min_size=1, max_size=10).map(_unique_by_id)

datasets = st.one_of(
    profile_lists.map(
        lambda items: ERDataset(
            EntityCollection(items, "web"),
            None,
            GroundTruth([], clean_clean=False),
            name="coded-dirty",
        )
    ),
    st.tuples(profile_lists, profile_lists).map(
        lambda pair: ERDataset(
            EntityCollection(pair[0], "S1"),
            EntityCollection(
                [EntityProfile("e2-" + p.profile_id, p.attributes) for p in pair[1]],
                "S2",
            ),
            GroundTruth([]),
            name="coded-cc",
        )
    ),
)

#: Entropies for some clusters only: the rest read 1.0.
entropy_maps = st.dictionaries(
    st.sampled_from((0,) + CLUSTERS),
    st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
)


def wide_partitioning(dataset: ERDataset, entropies, width: int = 100):
    """Clusters ``1..width``; ``c<k>`` in cluster *k*, the rest padding."""
    sources = (0, 1) if dataset.is_clean_clean else (0,)
    clusters = [
        [(s, f"c{k}" if k in CLUSTERS else f"pad{k}") for s in sources]
        for k in range(1, width + 1)
    ]
    glue = [(s, "other") for s in sources]
    return AttributePartitioning(clusters, glue, entropies)


def assert_same_as_oracle(got, oracle):
    """Keys, block order, members and every CSR array."""
    assert isinstance(got.entity_index.keys, CodedKeys)
    assert list(got.entity_index.keys) == [b.key for b in oracle]
    assert list(got) == list(oracle)
    assert_same_index(
        got.entity_index,
        EntityIndex.from_blocks(list(oracle), oracle.is_clean_clean),
    )


def assert_identical(blocker, dataset):
    assert_same_as_oracle(blocker.build(dataset), string_blocks(blocker, dataset))


class TestCodeOrderIsKeyStringOrder:
    @settings(deadline=None, max_examples=30)
    @given(datasets, entropy_maps, st.integers(1, 3))
    def test_schema_aware_tokens(self, dataset, entropies, floor):
        partitioning = wide_partitioning(dataset, entropies)
        assert_identical(
            LooselySchemaAwareBlocking(partitioning, min_token_length=floor),
            dataset,
        )

    @settings(deadline=None, max_examples=20)
    @given(datasets, entropy_maps, st.integers(2, 3))
    def test_schema_aware_qgrams(self, dataset, entropies, q):
        partitioning = wide_partitioning(dataset, entropies)
        assert_identical(
            LooselySchemaAwareBlocking(partitioning, transformation="qgram", q=q),
            dataset,
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(1, 3))
    def test_token(self, dataset, floor):
        assert_identical(TokenBlocking(min_token_length=floor), dataset)

    @settings(deadline=None, max_examples=20)
    @given(datasets, st.integers(2, 3))
    def test_qgrams(self, dataset, q):
        assert_identical(QGramsBlocking(q=q), dataset)

    @settings(deadline=None, max_examples=20)
    @given(datasets, st.integers(1, 3), st.integers(2, 6))
    def test_suffix_array(self, dataset, min_suffix, max_size):
        assert_identical(SuffixArrayBlocking(min_suffix, max_size), dataset)

    @settings(deadline=None, max_examples=25)
    @given(
        datasets,
        st.dictionaries(
            st.sampled_from(ATTRIBUTES + tuple(f"a{i:02d}" for i in range(12))),
            st.sampled_from(ATTRIBUTES),
            min_size=1,
            max_size=16,
        ),
    )
    def test_standard_token_mode(self, dataset, alignment):
        """Up to 16 aligned groups, absent ``a<i>`` names sorting first:
        ``@10`` sorts before ``@2``, and ``ab1@`` before ``ab@``."""
        assert_identical(StandardBlocking(alignment, key_mode="token"), dataset)

    @settings(deadline=None, max_examples=25)
    @given(datasets, entropy_maps, st.booleans())
    def test_exact_stream_view(self, dataset, entropies, schema_aware):
        """The exact view's key ids order as their key strings, through
        the batch purge and filter."""
        partitioning = wide_partitioning(dataset, entropies) if schema_aware else None
        index = IncrementalBlockIndex(
            clean_clean=dataset.is_clean_clean, partitioning=partitioning
        )
        for gidx, profile in dataset.iter_profiles():
            index.upsert(profile, source=dataset.source_of(gidx))
        blocker = (
            LooselySchemaAwareBlocking(partitioning)
            if schema_aware
            else TokenBlocking()
        )
        oracle = string_blocks(blocker, dataset)
        if len(oracle):
            oracle = oracle_block_filtering(
                oracle_block_purging(oracle, dataset.num_profiles)
            )
        assert_same_as_oracle(ExactStreamView(index).collection, oracle)


def _hex(values) -> list[str]:
    return [float(value).hex() for value in values]


class TestEntropyGather:
    @settings(deadline=None, max_examples=40)
    @given(datasets, entropy_maps, st.sampled_from([100, 11, 3]))
    def test_gather_equals_per_key_callable(self, dataset, entropies, width):
        """Raw, purged and filtered; an entropy partitioning narrower than
        the blocker's reads 1.0 past its last cluster, as ``entropy_of``."""
        blocks = LooselySchemaAwareBlocking(
            wide_partitioning(dataset, {})
        ).build(dataset)
        key_entropy = make_key_entropy(wide_partitioning(dataset, entropies, width))
        stages = [blocks]
        if len(blocks):
            stages.append(block_purging(blocks, dataset.num_profiles, 0.7))
            stages.append(block_filtering(stages[-1], ratio=0.6))
        for collection in stages:
            index = collection.entity_index
            per_key = [key_entropy(key) for key in index.keys]
            assert _hex(index.block_entropies(key_entropy)) == _hex(per_key)
            assert _hex(
                EntityIndex.from_blocks(
                    list(collection), collection.is_clean_clean
                ).block_entropies(key_entropy)
            ) == _hex(per_key)


class TestFilteringOnCodedKeys:
    @settings(deadline=None, max_examples=60)
    @given(
        datasets,
        st.one_of(
            st.sampled_from([0.8, 0.56, 0.28, 1 / 3, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        ),
    )
    def test_filtering_equals_oracle(self, dataset, ratio):
        """Tiny adversarial blocks: most sizes tie, so the position
        tie-break decides."""
        blocks = TokenBlocking(min_token_length=1).build(dataset)
        filtered = block_filtering(blocks, ratio=ratio)
        assert isinstance(filtered.entity_index.keys, CodedKeys)
        assert_bit_identical(filtered, oracle_block_filtering(blocks, ratio=ratio))


def test_codes_are_selected_not_formatted():
    """Purging and filtering hand on the code array, no strings."""
    dataset = ERDataset(
        EntityCollection(
            [EntityProfile(str(i), (("c1", "ab ab1 abc"),)) for i in range(4)],
            "web",
        ),
        None,
        GroundTruth([], clean_clean=False),
        name="codes",
    )
    blocks = TokenBlocking().build(dataset)
    keys = blocks.entity_index.keys

    def refuse(code):
        raise AssertionError(f"key {code} was formatted")

    keys.decode = refuse
    filtered = block_filtering(block_purging(blocks, 4, 1.0), ratio=0.5)
    codes = filtered.entity_index.keys.codes
    assert codes.dtype == np.int64 and codes.size == len(filtered)


class TestGroupAssignments:
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 40), st.integers(0, 2**31 - 1)),
                st.one_of(st.integers(0, 12), st.integers(0, 2**62)),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_groups_equal_dict_reference(self, assignments):
        """Narrow codes pack with the row in one sort; codes too wide for
        that pack (a 2**62 code beside a 2**31 row) are compacted first."""
        rows, codes = (
            np.asarray(column, dtype=np.int64) for column in zip(*assignments)
        )
        group_codes, starts, sizes, members = group_assignments(rows, codes)
        groups: dict[int, set[int]] = {}
        for row, code in assignments:
            groups.setdefault(code, set()).add(row)
        assert group_codes.tolist() == sorted(groups)
        assert [
            members[start : start + size].tolist()
            for start, size in zip(starts.tolist(), sizes.tolist())
        ] == [sorted(groups[code]) for code in sorted(groups)]
