"""Tests for MinHash, LSH banding and the S-curve."""

import numpy as np
import pytest

from repro.lsh import (
    LSHBanding,
    MinHasher,
    candidate_probability,
    choose_bands,
    estimated_threshold,
    lsh_candidate_pairs,
    scurve_points,
)
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.schema.similarity import jaccard


class TestMinHasher:
    def test_signature_shape(self):
        sigs = MinHasher(num_hashes=32, seed=1).signatures([{"a", "b"}, {"c"}])
        assert sigs.shape == (2, 32)

    def test_identical_sets_identical_signatures(self):
        sigs = MinHasher(num_hashes=64, seed=1).signatures(
            [{"a", "b", "c"}, {"a", "b", "c"}]
        )
        assert np.array_equal(sigs[0], sigs[1])

    def test_deterministic_given_seed(self):
        sets = [{"a", "b"}, {"b", "c"}]
        s1 = MinHasher(num_hashes=16, seed=7).signatures(sets)
        s2 = MinHasher(num_hashes=16, seed=7).signatures(sets)
        assert np.array_equal(s1, s2)

    def test_estimate_approximates_jaccard(self):
        a = {f"t{i}" for i in range(100)}
        b = {f"t{i}" for i in range(50, 150)}  # true jaccard = 50/150
        hasher = MinHasher(num_hashes=512, seed=3)
        sigs = hasher.signatures([a, b])
        estimate = hasher.estimate_jaccard(sigs[0], sigs[1])
        assert estimate == pytest.approx(jaccard(a, b), abs=0.08)

    def test_empty_sets_never_collide(self):
        sigs = MinHasher(num_hashes=8, seed=1).signatures([set(), set(), {"a"}])
        assert not np.array_equal(sigs[0], sigs[1])

    def test_shape_mismatch_rejected(self):
        hasher = MinHasher(num_hashes=8, seed=1)
        sigs = hasher.signatures([{"a"}])
        with pytest.raises(ValueError):
            hasher.estimate_jaccard(sigs[0], sigs[0][:4])

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            MinHasher(num_hashes=0)


class TestSCurve:
    def test_paper_example_threshold(self):
        # Section 3.1.2: b=30, r=5 -> threshold ~0.5
        assert estimated_threshold(5, 30) == pytest.approx(0.506, abs=0.01)

    def test_probability_monotone_in_similarity(self):
        s, p = scurve_points(5, 30, num=50)
        assert np.all(np.diff(p) >= -1e-12)

    def test_probability_extremes(self):
        assert candidate_probability(0.0, 5, 30) == 0.0
        assert candidate_probability(1.0, 5, 30) == pytest.approx(1.0)

    def test_probability_at_threshold_is_transitional(self):
        t = estimated_threshold(5, 30)
        p = candidate_probability(t, 5, 30)
        assert 0.3 < p < 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            estimated_threshold(0, 30)
        with pytest.raises(ValueError):
            candidate_probability(0.5, 5, 0)


def _pairs(array):
    return {tuple(pair) for pair in array.tolist()}


class TestBanding:
    REFS = [(0, "a"), (0, "b"), (1, "c")]

    def test_num_hashes(self):
        assert LSHBanding(bands=30, rows=5).num_hashes == 150

    def test_identical_signatures_are_candidates(self):
        sigs = MinHasher(num_hashes=20, seed=1).signatures([{"a", "b"}, {"a", "b"}])
        pairs = LSHBanding(bands=4, rows=5).candidate_pairs(sigs, self.REFS[:2], False)
        assert _pairs(pairs) == {(0, 1)}

    def test_disjoint_sets_rarely_candidates(self):
        sets = [{f"x{i}"} for i in range(10)]
        sigs = MinHasher(num_hashes=20, seed=1).signatures(sets)
        refs = [(0, f"n{i}") for i in range(10)]
        pairs = LSHBanding(bands=4, rows=5).candidate_pairs(sigs, refs, False)
        assert pairs.shape == (0, 2)

    def test_cross_source_filter(self):
        sigs = MinHasher(num_hashes=20, seed=1).signatures(
            [{"a", "b"}, {"a", "b"}, {"a", "b"}]
        )
        pairs = LSHBanding(bands=4, rows=5).candidate_pairs(sigs, self.REFS, True)
        assert _pairs(pairs) == {(0, 2), (1, 2)}  # (0, 1) is same-source

    def test_pairs_sorted_int64(self):
        sigs = MinHasher(num_hashes=20, seed=1).signatures([{"a"}] * 4)
        refs = [(0, f"n{i}") for i in range(4)]
        pairs = LSHBanding(bands=4, rows=5).candidate_pairs(sigs, refs, False)
        assert pairs.dtype == np.int64
        assert pairs.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]

    def test_wrong_signature_width_rejected(self):
        sigs = MinHasher(num_hashes=10, seed=1).signatures([{"a"}])
        with pytest.raises(ValueError, match="bands\\*rows"):
            LSHBanding(bands=4, rows=5).candidate_pairs(sigs, self.REFS[:1], False)


class TestChooseBands:
    def test_matches_requested_threshold(self):
        banding = choose_bands(150, 0.5)
        assert banding.num_hashes == 150
        assert banding.threshold == pytest.approx(0.5, abs=0.05)

    def test_low_threshold_gives_many_bands(self):
        low = choose_bands(150, 0.1)
        high = choose_bands(150, 0.8)
        assert low.bands > high.bands

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            choose_bands(150, 0.0)


class TestLshCandidatePairs:
    @staticmethod
    def _dataset(left, right=None):
        def collection(rows, name):
            return EntityCollection(
                [EntityProfile.from_dict(f"{name}{i}", row) for i, row in enumerate(rows)],
                name,
            )

        return ERDataset(
            collection(left, "l"),
            collection(right, "r") if right is not None else None,
            GroundTruth([], clean_clean=right is not None),
        )

    def _clean_clean(self):
        names = [f"n{i}" for i in range(60)]
        return self._dataset(
            [{"name": " ".join(names), "year": "1985 1990 2001"}],
            [{"fullname": " ".join(names[:55]), "when": "1985 1990"}],
        )

    def _refs(self, dataset, pairs):
        refs = sorted(dataset.corpus.attributes)
        return {(refs[i], refs[j]) for i, j in pairs.tolist()}

    def test_similar_attributes_become_candidates(self):
        dataset = self._clean_clean()
        pairs = lsh_candidate_pairs(
            dataset.corpus, threshold=0.3, num_hashes=100, seed=5
        )
        assert ((0, "name"), (1, "fullname")) in self._refs(dataset, pairs)

    def test_only_cross_source_pairs(self):
        dataset = self._clean_clean()
        pairs = lsh_candidate_pairs(
            dataset.corpus, threshold=0.1, num_hashes=100, seed=5
        )
        assert pairs.size
        assert all(a[0] != b[0] for a, b in self._refs(dataset, pairs))

    def test_dirty_mode_allows_within_source(self):
        dataset = self._dataset([{"a": "xx yy zz", "b": "xx yy zz"}])
        pairs = lsh_candidate_pairs(
            dataset.corpus, threshold=0.3, num_hashes=100, seed=5
        )
        assert self._refs(dataset, pairs) == {((0, "a"), (0, "b"))}

    def test_explicit_banding_overrides_threshold(self):
        dataset = self._clean_clean()
        banding = LSHBanding(bands=25, rows=4)
        pairs = lsh_candidate_pairs(dataset.corpus, banding=banding, seed=5)
        assert ((0, "name"), (1, "fullname")) in self._refs(dataset, pairs)
