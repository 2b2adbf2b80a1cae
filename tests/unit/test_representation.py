"""Tests for the TF-IDF attribute representation model."""

import pytest

from repro.data import EntityCollection, EntityProfile
from repro.schema.representation import (
    TfIdfAttributeModel,
    tfidf_attribute_match_induction,
)


@pytest.fixture
def collections():
    left = EntityCollection(
        [
            EntityProfile.from_dict("a1", {"name": "john abram", "year": "1985"}),
            EntityProfile.from_dict("a2", {"name": "ellen smith", "year": "1990"}),
        ],
        "L",
    )
    right = EntityCollection(
        [
            EntityProfile.from_dict("b1", {"fullname": "john abram", "born": "1985"}),
            EntityProfile.from_dict("b2", {"fullname": "ellen smith", "born": "1990"}),
        ],
        "R",
    )
    return left, right


class TestModel:
    def test_identical_attributes_have_cosine_one(self, collections):
        model = TfIdfAttributeModel(*collections)
        assert model.cosine((0, "name"), (1, "fullname")) == pytest.approx(1.0)
        assert model.cosine((0, "year"), (1, "born")) == pytest.approx(1.0)

    def test_disjoint_attributes_have_cosine_zero(self, collections):
        model = TfIdfAttributeModel(*collections)
        assert model.cosine((0, "name"), (1, "born")) == 0.0

    def test_unknown_ref_is_zero(self, collections):
        model = TfIdfAttributeModel(*collections)
        assert model.cosine((0, "ghost"), (1, "born")) == 0.0

    def test_refs_cover_both_sources(self, collections):
        model = TfIdfAttributeModel(*collections)
        assert (0, "name") in model.refs and (1, "born") in model.refs

    def test_idf_downweights_common_tokens(self):
        # "common" appears in every attribute; "rare" in one pair only.
        left = EntityCollection(
            [EntityProfile.from_dict("a", {"x": "common rare", "y": "common abc"})],
            "L",
        )
        right = EntityCollection(
            [EntityProfile.from_dict("b", {"u": "common rare", "v": "common xyz"})],
            "R",
        )
        model = TfIdfAttributeModel(left, right)
        # x-u share the rare token too: must be more similar than y-v,
        # which share only the ubiquitous one.
        assert model.cosine((0, "x"), (1, "u")) > model.cosine((0, "y"), (1, "v"))

    def test_vector_access(self, collections):
        model = TfIdfAttributeModel(*collections)
        vector = model.vector((0, "name"))
        assert set(vector) == {"john", "abram", "ellen", "smith"}
        assert all(weight > 0 for weight in vector.values())


class TestTfIdfInduction:
    def test_lmi_clusters_aligned_attributes(self, collections):
        model = TfIdfAttributeModel(*collections)
        part = tfidf_attribute_match_induction(model, method="lmi")
        assert part.cluster_of(0, "name") == part.cluster_of(1, "fullname") != 0
        assert part.cluster_of(0, "year") == part.cluster_of(1, "born") != 0

    def test_ac_variant(self, collections):
        model = TfIdfAttributeModel(*collections)
        part = tfidf_attribute_match_induction(model, method="ac")
        assert part.cluster_of(0, "name") == part.cluster_of(1, "fullname") != 0

    def test_dirty_single_source(self):
        collection = EntityCollection(
            [EntityProfile.from_dict("d", {"first": "ann bea",
                                           "alias": "ann bea",
                                           "year": "1985"})],
            "D",
        )
        model = TfIdfAttributeModel(collection)
        part = tfidf_attribute_match_induction(model, method="lmi")
        assert part.cluster_of(0, "first") == part.cluster_of(0, "alias") != 0

    def test_unknown_method_rejected(self, collections):
        model = TfIdfAttributeModel(*collections)
        with pytest.raises(ValueError, match="method"):
            tfidf_attribute_match_induction(model, method="magic")

    @pytest.mark.parametrize("method", ["lmi", "ac"])
    @pytest.mark.parametrize("glue_cluster", [True, False])
    def test_equals_the_set_oracle_driven_by_model_cosine(self, method, glue_cluster):
        from _schema_oracles import ac_oracle, lmi_oracle
        from repro.schema.attribute_profile import AttributeProfile

        left = EntityCollection(
            [
                EntityProfile.from_dict(
                    "a1", {"name": "john abram", "nick": "john", "year": "1985 ."}
                ),
                EntityProfile.from_dict(
                    "a2", {"name": "ellen smith", "nick": "ellen ellen", "year": "1990"}
                ),
            ],
            "L",
        )
        right = EntityCollection(
            [
                EntityProfile.from_dict(
                    "b1", {"fullname": "john abram smith", "born": "1985", "memo": "?"}
                ),
                EntityProfile.from_dict("b2", {"fullname": "ellen", "born": "1990 1985"}),
            ],
            "R",
        )
        model = TfIdfAttributeModel(left, right)
        assert len(model.refs) == 6

        # The oracle scores token sets: hand it each ref as its only "token".
        def by_ref(a, b):
            return model.cosine(next(iter(a)), next(iter(b)))

        profiles = [AttributeProfile(s, n, frozenset({(s, n)})) for s, n in model.refs]
        profiles1 = [p for p in profiles if p.source == 0]
        profiles2 = [p for p in profiles if p.source == 1]
        for alpha in (0.5, 0.9, 1.0):
            got = tfidf_attribute_match_induction(
                model, method=method, alpha=alpha, glue_cluster=glue_cluster
            )
            if method == "lmi":
                want = lmi_oracle(
                    profiles1, profiles2, alpha=alpha,
                    glue_cluster=glue_cluster, similarity=by_ref,
                )
            else:
                want = ac_oracle(
                    profiles1, profiles2, glue_cluster=glue_cluster, similarity=by_ref
                )
            assert got.to_dict() == want.to_dict()
            assert got.cluster_of(1, "memo") == (0 if glue_cluster else None)
            assert got.num_clusters >= 2
