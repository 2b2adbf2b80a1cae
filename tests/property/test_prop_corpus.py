"""Property-based equivalence: interned corpus paths vs string keys.

The interned corpus layer's headline guarantee: every consumer that reads
interned id arrays instead of re-tokenized strings — the blockers, schema
extraction, entropies, attribute profiling — produces *identical* output
to the string-keyed oracle in ``tests/_blocker_oracles.py``.  Hypothesis
hammers that with random clean-clean and dirty datasets: same blocks in the
same order with the same members, the same pre-lowered CSR entity index,
and the same schema statistics.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _block_oracles import assert_same_index
from _blocker_oracles import string_blocks, string_schema
from _schema_oracles import build_attribute_profiles, string_entropies
from repro.blocking.canopy import CanopyBlocking
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.schema_aware import LooselySchemaAwareBlocking
from repro.blocking.standard import StandardBlocking
from repro.blocking.suffix_array import SuffixArrayBlocking
from repro.blocking.token import TokenBlocking
from repro.core.config import BlastConfig
from repro.core.stages import SchemaExtraction
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.graph.entity_index import EntityIndex
from repro.schema.attribute_graph import corpus_memberships
from repro.schema.entropy import attribute_entropies
from repro.schema.partition import AttributePartitioning

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

#: ``zip`` never occurs in the data; two entries may name one attribute.
alignments = st.dictionaries(
    st.sampled_from(ATTRIBUTES + ("zip",)),
    st.sampled_from(ATTRIBUTES + ("zip",)),
    min_size=1,
    max_size=4,
)

canopy_thresholds = st.tuples(
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.01, max_value=1.0),
).map(sorted)


def assert_identical(blocker, dataset):
    """Blocks, order, members and the CSR lowering must all agree."""
    interned = blocker.build(dataset)
    legacy = string_blocks(blocker, dataset)
    assert [b.key for b in interned] == [b.key for b in legacy]
    for a, b in zip(interned, legacy):
        assert a.left == b.left and a.right == b.right
    assert_same_index(
        interned.entity_index,
        EntityIndex.from_blocks(list(legacy), legacy.is_clean_clean),
    )


class TestInternedBlockingMatchesStrings:
    @settings(deadline=None, max_examples=40)
    @given(datasets, st.integers(min_value=1, max_value=4))
    def test_token_blocking(self, dataset, min_length):
        assert_identical(TokenBlocking(min_token_length=min_length), dataset)

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(min_value=1, max_value=4))
    def test_schema_aware_blocking(self, dataset, min_length):
        partitioning = SchemaExtraction().extract(dataset)
        assert_identical(
            LooselySchemaAwareBlocking(partitioning, min_token_length=min_length),
            dataset,
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(min_value=2, max_value=4))
    def test_schema_aware_qgram_transformation(self, dataset, q):
        partitioning = SchemaExtraction().extract(dataset)
        assert_identical(
            LooselySchemaAwareBlocking(partitioning, transformation="qgram", q=q),
            dataset,
        )

    @settings(deadline=None, max_examples=25)
    @given(datasets, st.integers(min_value=2, max_value=4))
    def test_qgrams_blocking(self, dataset, q):
        assert_identical(QGramsBlocking(q=q), dataset)

    @settings(deadline=None, max_examples=25)
    @given(
        datasets,
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=2, max_value=8),
    )
    def test_suffix_array_blocking(self, dataset, min_suffix, max_size):
        assert_identical(SuffixArrayBlocking(min_suffix, max_size), dataset)

    @settings(deadline=None, max_examples=30)
    @given(datasets, alignments)
    def test_standard_blocking_token_mode(self, dataset, alignment):
        assert_identical(StandardBlocking(alignment, key_mode="token"), dataset)

    @settings(deadline=None, max_examples=30)
    @given(datasets, canopy_thresholds, st.integers(0, 2**16))
    def test_canopy_blocking(self, dataset, thresholds, seed):
        loose, tight = thresholds
        assert_identical(CanopyBlocking(loose, tight, seed=seed), dataset)


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
                corpus, source, min_length
            ) == string_entropies(collection, source, min_length)

    @settings(deadline=None, max_examples=30)
    @given(datasets, st.integers(min_value=1, max_value=3))
    def test_attribute_memberships(self, dataset, min_length):
        corpus = dataset.corpus
        refs, rows, tokens = corpus_memberships(corpus, min_length)
        token_sets = {ref: set() for ref in refs}
        for row, tid in zip(rows.tolist(), tokens.tolist()):
            token_sets[refs[row]].add(corpus.dictionary.token_of(tid))
        expected = {}
        for source, collection in (
            (0, dataset.collection1),
            (1, dataset.collection2),
        ):
            if collection is not None:
                for profile in build_attribute_profiles(collection, source, min_length):
                    expected[profile.ref] = profile.tokens
        assert refs == sorted(expected)
        assert token_sets == expected

    @settings(deadline=None, max_examples=20)
    @given(
        datasets,
        st.sampled_from(["lmi", "ac"]),
        st.integers(min_value=1, max_value=3),
    )
    def test_schema_extraction_partitionings_agree(self, dataset, induction, floor):
        config = BlastConfig(induction=induction, min_token_length=floor)
        interned = SchemaExtraction(config).extract(dataset)
        assert interned.to_dict() == string_schema(dataset, config).to_dict()


#: The constructors that must offer no ``interned`` switch (one path per
#: blocker), with the arguments each requires.
KNOBLESS = {
    "canopy": (CanopyBlocking, ()),
    "qgrams": (QGramsBlocking, ()),
    "schema-aware": (LooselySchemaAwareBlocking, (AttributePartitioning([]),)),
    "schema-extraction": (SchemaExtraction, ()),
    "standard": (StandardBlocking, ({"name": "name"},)),
    "suffix-array": (SuffixArrayBlocking, ()),
    "token": (TokenBlocking, ()),
}


@pytest.mark.parametrize("name", sorted(KNOBLESS))
def test_no_constructor_takes_interned(name):
    cls, args = KNOBLESS[name]
    with pytest.raises(TypeError):
        cls(*args, interned=False)
