"""Tests for Shannon entropy and aggregate-entropy extraction."""

import math

import pytest
from _schema_oracles import string_entropies

from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.schema.entropy import (
    aggregate_entropies,
    attribute_entropies,
    extract_loose_schema_entropies,
    shannon_entropy,
)
from repro.schema.partition import GLUE_CLUSTER_ID, AttributePartitioning


class TestShannonEntropy:
    def test_uniform_two_values_is_one_bit(self):
        assert shannon_entropy([1, 1]) == pytest.approx(1.0)

    def test_single_value_is_zero(self):
        assert shannon_entropy([7]) == 0.0

    def test_uniform_n_values(self):
        assert shannon_entropy([3] * 8) == pytest.approx(3.0)

    def test_skew_lowers_entropy(self):
        assert shannon_entropy([9, 1]) < shannon_entropy([5, 5])

    def test_zero_counts_ignored(self):
        assert shannon_entropy([2, 0, 2]) == pytest.approx(1.0)

    def test_empty_distribution(self):
        assert shannon_entropy([]) == 0.0

    def test_upper_bound_log2_n(self):
        counts = [1, 2, 3, 4, 5]
        assert shannon_entropy(counts) <= math.log2(len(counts))


def _corpus(collection: EntityCollection):
    return ERDataset(collection, None, GroundTruth([], clean_clean=False)).corpus


class TestAttributeEntropies:
    def _collection(self) -> EntityCollection:
        # "year" repeats one token; "name" has four distinct tokens.
        return EntityCollection(
            [
                EntityProfile.from_dict("1", {"name": "john abram", "year": "1985"}),
                EntityProfile.from_dict("2", {"name": "ellen smith", "year": "1985"}),
            ],
            "c",
        )

    def test_high_vs_low_entropy_attributes(self):
        entropies = attribute_entropies(_corpus(self._collection()), source=0)
        assert entropies[(0, "name")] == pytest.approx(2.0)  # 4 equiprobable
        assert entropies[(0, "year")] == 0.0  # always "1985"

    def test_tokenless_attribute_zero(self):
        c = EntityCollection(
            [EntityProfile.from_dict("1", {"junk": "..."})], "c"
        )
        assert attribute_entropies(_corpus(c), source=0)[(0, "junk")] == 0.0

    @pytest.mark.parametrize(
        "profiles",
        [
            # an attribute whose every value tokenizes to nothing
            [
                EntityProfile.from_dict("1", {"name": "john abram", "junk": "..."}),
                EntityProfile.from_dict("2", {"junk": "--", "year": "1985"}),
            ],
            # an empty profile among the others
            [
                EntityProfile.from_dict("1", {"name": "john abram"}),
                EntityProfile("2", ()),
                EntityProfile.from_dict("3", {"year": "1985"}),
            ],
        ],
        ids=["tokenless-attribute", "empty-profile"],
    )
    def test_corpus_attribute_space_is_the_collections(self, profiles):
        collection = EntityCollection(profiles, "c")
        other = EntityCollection(
            [EntityProfile.from_dict("x", {"title": "abram", "junk": "!"})], "d"
        )
        corpus = ERDataset(collection, other, GroundTruth([])).corpus
        for source, side in ((0, collection), (1, other)):
            interned = attribute_entropies(corpus, source)
            assert {name for _, name in interned} == side.attribute_names
            assert interned == string_entropies(side, source)


class TestAggregateEntropies:
    def test_mean_over_members(self):
        part = AttributePartitioning(
            [{(0, "a"), (1, "b")}], glue=[(0, "c")]
        )
        values = {(0, "a"): 3.0, (1, "b"): 1.0, (0, "c"): 2.0}
        agg = aggregate_entropies(part, values)
        assert agg[1] == pytest.approx(2.0)
        assert agg[GLUE_CLUSTER_ID] == pytest.approx(2.0)

    def test_missing_attributes_count_as_zero(self):
        part = AttributePartitioning([{(0, "a"), (1, "b")}])
        agg = aggregate_entropies(part, {(0, "a"): 4.0})
        assert agg[1] == pytest.approx(2.0)

    def test_empty_glue_cluster(self):
        part = AttributePartitioning([{(0, "a"), (1, "b")}], glue=[])
        agg = aggregate_entropies(part, {(0, "a"): 4.0, (1, "b"): 4.0})
        assert agg[GLUE_CLUSTER_ID] == 0.0


class TestExtraction:
    def test_end_to_end(self, figure1_clean_clean):
        part = AttributePartitioning(
            [{(0, "Name"), (1, "name2")}],
            glue=[(0, "year"), (1, "birth year")],
        )
        enriched = extract_loose_schema_entropies(part, figure1_clean_clean.corpus)
        # names carry more information than the year attributes
        assert enriched.entropy_of(1) > enriched.entropy_of(GLUE_CLUSTER_ID)
        # the original partitioning is untouched (neutral entropies)
        assert part.entropy_of(1) == 1.0
