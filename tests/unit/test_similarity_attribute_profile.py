"""Tests for set similarities and the corpus attribute memberships."""

import pytest
from _schema_oracles import build_attribute_profiles

from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.schema.attribute_graph import corpus_memberships
from repro.schema.similarity import cosine, dice, jaccard


class TestJaccard:
    def test_identical_sets(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_partial_overlap(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == pytest.approx(0.5)

    def test_empty_sets(self):
        assert jaccard(set(), set()) == 0.0
        assert jaccard({"a"}, set()) == 0.0


class TestDiceCosine:
    def test_dice_bounds_and_overlap(self):
        assert dice({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)
        assert dice({"a"}, {"a"}) == 1.0

    def test_cosine_bounds_and_overlap(self):
        assert cosine({"a", "b"}, {"b", "c"}) == pytest.approx(0.5)
        assert cosine({"a"}, {"a"}) == 1.0

    def test_all_measures_agree_on_extremes(self):
        for fn in (jaccard, dice, cosine):
            assert fn({"x"}, {"x"}) == 1.0
            assert fn({"x"}, {"y"}) == 0.0
            assert fn(set(), {"y"}) == 0.0

    def test_ordering_consistency(self):
        # dice >= jaccard always; cosine between them for same-size sets
        a, b = {"a", "b", "c"}, {"b", "c", "d"}
        assert dice(a, b) >= jaccard(a, b)


class TestCorpusMemberships:
    def _dataset(self) -> ERDataset:
        collection = EntityCollection(
            [
                EntityProfile.from_dict("1", {"name": "John Abram", "year": "1985"}),
                EntityProfile.from_dict("2", {"name": "Ellen Smith", "note": "..."}),
            ],
            "c",
        )
        return ERDataset(collection, None, GroundTruth([], clean_clean=False))

    def _token_sets(self, dataset: ERDataset) -> dict:
        corpus = dataset.corpus
        refs, rows, tokens = corpus_memberships(corpus, 2)
        token_sets = {ref: set() for ref in refs}
        for row, tid in zip(rows.tolist(), tokens.tolist()):
            token_sets[refs[row]].add(corpus.dictionary.token_of(tid))
        return token_sets

    def test_token_sets_per_attribute(self):
        token_sets = self._token_sets(self._dataset())
        assert token_sets[(0, "name")] == {"john", "abram", "ellen", "smith"}
        assert token_sets[(0, "year")] == {"1985"}

    def test_tokenless_attribute_keeps_a_row(self):
        # "note" has only punctuation: no membership, but a row.
        assert self._token_sets(self._dataset())[(0, "note")] == set()

    def test_refs_sorted_with_source(self):
        refs, _, _ = corpus_memberships(self._dataset().corpus, 2)
        assert refs == [(0, "name"), (0, "note"), (0, "year")]

    def test_equals_string_profiles(self):
        dataset = self._dataset()
        assert self._token_sets(dataset) == {
            profile.ref: profile.tokens
            for profile in build_attribute_profiles(dataset.collection1, 0)
        }
