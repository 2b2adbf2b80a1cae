"""Property-based equivalence: interned corpus paths vs the string era.

The interned corpus refactor's headline guarantee: every consumer that
switched from re-tokenized strings to interned id arrays — the blockers,
entropy extraction, attribute profiling — produces *identical* output.
Hypothesis hammers that with random clean-clean and dirty datasets: same
blocks in the same order with the same members, the same pre-lowered CSR
entity index, and the same schema statistics.
"""

from hypothesis import given, settings, strategies as st

from _block_oracles import assert_same_index
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.schema_aware import LooselySchemaAwareBlocking
from repro.blocking.suffix_array import SuffixArrayBlocking
from repro.blocking.token import TokenBlocking
from repro.core.stages import SchemaExtraction
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.graph.entity_index import EntityIndex
from repro.schema.attribute_profile import build_attribute_profiles
from repro.schema.entropy import attribute_entropies

ATTRIBUTES = ("name", "job", "city")
WORDS = ("abram", "ellen", "smith", "jones", "retail", "seller",
         "york", "main", "street", "st", "a")

profiles = st.builds(
    lambda pid, pairs: EntityProfile(pid, tuple(pairs)),
    pid=st.uuids().map(str),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(ATTRIBUTES),
            st.lists(
                st.sampled_from(WORDS), min_size=1, max_size=3
            ).map(" ".join),
        ),
        min_size=0,
        max_size=4,
    ),
)


def _unique_by_id(items):
    seen: set[str] = set()
    out = []
    for item in items:
        if item.profile_id not in seen:
            seen.add(item.profile_id)
            out.append(item)
    return out


profile_lists = st.lists(profiles, min_size=1, max_size=10).map(_unique_by_id)

dirty_datasets = profile_lists.map(
    lambda items: ERDataset(
        EntityCollection(items, "web"),
        None,
        GroundTruth([], clean_clean=False),
        name="prop-dirty",
    )
)

clean_clean_datasets = st.tuples(profile_lists, profile_lists).map(
    lambda pair: ERDataset(
        EntityCollection(pair[0], "S1"),
        EntityCollection(
            [
                EntityProfile("e2-" + p.profile_id, p.attributes)
                for p in pair[1]
            ],
            "S2",
        ),
        GroundTruth([]),
        name="prop-cc",
    )
)

datasets = st.one_of(dirty_datasets, clean_clean_datasets)


def assert_identical(interned, legacy):
    """Blocks, order, members and the CSR lowering must all agree."""
    assert [b.key for b in interned] == [b.key for b in legacy]
    for a, b in zip(interned, legacy):
        assert a.left == b.left and a.right == b.right
    assert_same_index(interned.entity_index, EntityIndex.from_collection(legacy))


class TestInternedBlockingMatchesStrings:
    @settings(deadline=None, max_examples=40)
    @given(datasets, st.integers(min_value=1, max_value=4))
    def test_token_blocking(self, dataset, min_length):
        assert_identical(
            TokenBlocking(min_token_length=min_length).build(dataset),
            TokenBlocking(min_token_length=min_length, interned=False).build(
                dataset
            ),
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets)
    def test_schema_aware_blocking(self, dataset):
        partitioning = SchemaExtraction().extract(dataset)
        assert_identical(
            LooselySchemaAwareBlocking(partitioning).build(dataset),
            LooselySchemaAwareBlocking(partitioning, interned=False).build(
                dataset
            ),
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(min_value=2, max_value=4))
    def test_schema_aware_qgram_transformation(self, dataset, q):
        partitioning = SchemaExtraction().extract(dataset)
        assert_identical(
            LooselySchemaAwareBlocking(
                partitioning, transformation="qgram", q=q
            ).build(dataset),
            LooselySchemaAwareBlocking(
                partitioning, transformation="qgram", q=q, interned=False
            ).build(dataset),
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(min_value=2, max_value=4))
    def test_qgrams_blocking(self, dataset, q):
        assert_identical(
            QGramsBlocking(q=q).build(dataset),
            QGramsBlocking(q=q, interned=False).build(dataset),
        )

    @settings(deadline=None, max_examples=25)
    @given(
        datasets,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=8),
    )
    def test_suffix_array_blocking(self, dataset, min_suffix, max_size):
        assert_identical(
            SuffixArrayBlocking(min_suffix, max_size).build(dataset),
            SuffixArrayBlocking(min_suffix, max_size, interned=False).build(
                dataset
            ),
        )


class TestInternedSchemaMatchesStrings:
    @settings(deadline=None, max_examples=30)
    @given(datasets, st.integers(min_value=1, max_value=3))
    def test_attribute_entropies(self, dataset, min_length):
        corpus = dataset.corpus
        for source, collection in (
            (0, dataset.collection1),
            (1, dataset.collection2),
        ):
            if collection is None:
                continue
            assert attribute_entropies(
                collection, source, min_length, corpus=corpus
            ) == attribute_entropies(collection, source, min_length)

    @settings(deadline=None, max_examples=30)
    @given(datasets, st.integers(min_value=1, max_value=3))
    def test_attribute_profiles(self, dataset, min_length):
        corpus = dataset.corpus
        for source, collection in (
            (0, dataset.collection1),
            (1, dataset.collection2),
        ):
            if collection is None:
                continue
            assert build_attribute_profiles(
                collection, source, min_length, corpus=corpus
            ) == build_attribute_profiles(collection, source, min_length)

    @settings(deadline=None, max_examples=20)
    @given(datasets)
    def test_schema_extraction_partitionings_agree(self, dataset):
        interned = SchemaExtraction().extract(dataset)
        legacy = SchemaExtraction(interned=False).extract(dataset)
        assert interned.to_dict() == legacy.to_dict()
