"""Tests for the interned columnar corpus (repro.data.corpus)."""

import numpy as np
import pytest
from _schema_oracles import build_attribute_profiles, string_entropies

from repro.data import corpus as corpus_module
from repro.data import (
    EntityCollection,
    EntityProfile,
    ERDataset,
    GroundTruth,
    InternedCorpus,
    TokenDictionary,
)
from repro.schema.attribute_graph import corpus_memberships
from repro.schema.entropy import attribute_entropies
from repro.utils.tokenize import qgrams, suffixes, tokenize


class TestTokenDictionary:
    def test_intern_assigns_dense_stable_ids(self):
        d = TokenDictionary()
        assert d.intern("abram") == 0
        assert d.intern("st") == 1
        assert d.intern("abram") == 0  # stable on re-intern
        assert len(d) == 2

    def test_lookup_and_membership(self):
        d = TokenDictionary(["abram", "st"])
        assert d.id_of("st") == 1
        assert d.token_of(0) == "abram"
        assert "abram" in d and "ellen" not in d
        assert d.get("ellen") is None
        with pytest.raises(KeyError):
            d.id_of("ellen")

    def test_iterates_in_id_order(self):
        d = TokenDictionary(["b", "a", "c"])
        assert list(d) == ["b", "a", "c"]

    def test_lengths_indexed_by_id(self):
        d = TokenDictionary(["abram", "st", "30"])
        assert d.lengths().tolist() == [5, 2, 2]

    def test_payload_round_trip_preserves_ids(self):
        d = TokenDictionary(["abram", "st", "30"])
        restored = TokenDictionary.from_payload(d.to_payload())
        for token in d:
            assert restored.id_of(token) == d.id_of(token)

    def test_duplicate_payload_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            TokenDictionary.from_payload(["abram", "abram"])


    def test_ids_of_codes_a_stream_with_a_default_for_unknowns(self):
        d = TokenDictionary(["abram", "st"])
        codes = d.ids_of(["st", "nope", "abram", "st"], default=-1)
        assert codes.dtype == np.int64
        assert codes.tolist() == [1, -1, 0, 1]
        assert d.ids_of([], default=-1).size == 0
        assert "nope" not in d

    def test_lengths_are_int32_by_id(self):
        lengths = TokenDictionary(["abram", "st", "a"]).lengths()
        assert lengths.dtype == np.int32 and lengths.tolist() == [5, 2, 1]


class TestCorpusBuild:
    def test_one_row_per_occurrence_with_multiplicity(self):
        profile = EntityProfile.from_dict("p1", {"name": "st st abram"})
        dataset = ERDataset(
            EntityCollection([profile, profile_with("p2", "abram")]),
            None,
            GroundTruth([], clean_clean=False),
        )
        corpus = dataset.corpus
        assert corpus.num_profiles == 2
        # duplicates survive: "st" appears twice in p1
        tokens_p1 = [
            corpus.dictionary.token_of(t)
            for t in corpus.token_ids[
                corpus.profile_ptr[0] : corpus.profile_ptr[1]
            ].tolist()
        ]
        assert tokens_p1 == ["st", "st", "abram"]

    def test_cached_on_dataset(self, figure1_dirty):
        assert figure1_dirty.corpus is figure1_dirty.corpus

    def test_attribute_interning_is_source_scoped(self, figure1_clean_clean):
        corpus = figure1_clean_clean.corpus
        assert corpus.attr_id_of(0, "Name") is not None
        assert corpus.attr_id_of(1, "Name") is None  # E2 has no "Name"
        assert corpus.attr_id_of(1, "full name") is not None

    def test_short_tokens_are_kept_down_to_length_one(self):
        dataset = ERDataset(
            EntityCollection([profile_with("p1", "a bc")]),
            None,
            GroundTruth([], clean_clean=False),
        )
        corpus = dataset.corpus
        assert "a" in corpus.dictionary


    def test_tokenless_values_and_pairless_profiles_keep_their_rows(self):
        dataset = ERDataset(
            EntityCollection(
                [
                    EntityProfile("p0", ()),
                    EntityProfile("p1", (("junk", "..."), ("name", "a b"))),
                    EntityProfile("p2", ()),
                    EntityProfile("p3", (("name", "b"), ("junk", "\x00"))),
                ]
            ),
            None,
            GroundTruth([], clean_clean=False),
        )
        corpus = dataset.corpus
        assert corpus.attributes == ((0, "junk"), (0, "name"))
        assert corpus.profile_ptr.tolist() == [0, 0, 2, 2, 3]
        assert corpus.attr_ids.tolist() == [1, 1, 1]
        assert corpus.token_ids.tolist() == [0, 1, 1]
        assert corpus.dictionary.to_payload() == ["a", "b"]

    def test_vocabulary_overflow_is_still_refused(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "MAX_TOKEN_ID", 1)
        dataset = ERDataset(
            EntityCollection([profile_with("p1", "a b a c")]),
            None,
            GroundTruth([], clean_clean=False),
        )
        with pytest.raises(OverflowError, match="token dictionary"):
            InternedCorpus.build(dataset)

    def test_profile_space_overflow_is_still_refused(self, monkeypatch):
        monkeypatch.setattr(corpus_module, "MAX_TOKEN_ID", 1)
        dataset = ERDataset(
            EntityCollection([profile_with(f"p{i}", "a") for i in range(3)]),
            None,
            GroundTruth([], clean_clean=False),
        )
        with pytest.raises(OverflowError, match="profile space"):
            InternedCorpus.build(dataset)


class TestDistinctViews:
    def test_distinct_profile_tokens_match_profile_tokens(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        rows, toks = corpus.distinct_profile_tokens(2)
        by_profile: dict[int, set[str]] = {}
        for row, tok in zip(rows.tolist(), toks.tolist()):
            by_profile.setdefault(row, set()).add(corpus.dictionary.token_of(tok))
        for gidx, profile in figure1_dirty.iter_profiles():
            assert by_profile.get(gidx, set()) == set(profile.tokens())

    def test_profile_token_id_sets_align_with_strings(self, figure1_clean_clean):
        corpus = figure1_clean_clean.corpus
        sets = corpus.profile_token_id_sets(2)
        assert len(sets) == figure1_clean_clean.num_profiles
        for gidx, profile in figure1_clean_clean.iter_profiles():
            materialized = {corpus.dictionary.token_of(t) for t in sets[gidx]}
            assert materialized == set(profile.tokens())

    def test_length_floor_filters(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        _, toks = corpus.distinct_profile_tokens(4)
        assert all(
            len(corpus.dictionary.token_of(t)) >= 4 for t in set(toks.tolist())
        )


class TestAttributeTermCounts:
    def test_counts_match_counter_over_strings(self, figure1_clean_clean):
        corpus = figure1_clean_clean.corpus
        for source, collection in (
            (0, figure1_clean_clean.collection1),
            (1, figure1_clean_clean.collection2),
        ):
            attrs, toks, counts = corpus.attribute_term_counts(source, 2)
            reference: dict[tuple[str, str], int] = {}
            for profile in collection:
                for name, value in profile.iter_pairs():
                    for token in tokenize(value, 2):
                        reference[(name, token)] = (
                            reference.get((name, token), 0) + 1
                        )
            got = {
                (
                    corpus.attributes[a][1],
                    corpus.dictionary.token_of(t),
                ): c
                for a, t, c in zip(
                    attrs.tolist(), toks.tolist(), counts.tolist()
                )
            }
            assert got == reference

    @pytest.mark.parametrize("min_length", [2, 99])
    def test_arrays_are_np_unique_counts(self, figure1_clean_clean, min_length):
        # The sorted-run count equals np.unique(return_counts=True) bit for
        # bit, an empty selection (no token of 99 characters) included.
        corpus = figure1_clean_clean.corpus
        vocab = max(1, corpus.vocabulary_size)
        for source in (0, 1):
            start, end = corpus._source_bounds(source)
            lo, hi = corpus.profile_ptr[start], corpus.profile_ptr[end]
            toks = corpus.token_ids[lo:hi]
            keep = corpus.token_lengths[toks] >= min_length
            codes = corpus.attr_ids[lo:hi][keep].astype(np.int64) * vocab
            unique, counts = np.unique(codes + toks[keep], return_counts=True)
            got = corpus.attribute_term_counts(source, min_length)
            expected = (unique // vocab, unique % vocab, counts)
            for array, reference in zip(got, expected, strict=True):
                assert array.dtype == np.int64
                assert array.tobytes() == reference.tobytes()
        assert min_length == 2 or got[0].size == 0

    def test_dirty_corpus_rejects_source_one(self, figure1_dirty):
        with pytest.raises(ValueError, match="single source"):
            figure1_dirty.corpus.attribute_term_counts(1, 2)


class TestExpansionTables:
    def test_qgram_table_matches_qgrams(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        terms, ptr, ids = corpus.qgram_table(3)
        for tid, token in enumerate(corpus.dictionary):
            derived = [terms.token_of(g) for g in ids[ptr[tid] : ptr[tid + 1]]]
            expected = list(dict.fromkeys(qgrams(token, 3)))
            assert derived == expected

    def test_suffix_table_matches_suffixes(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        terms, ptr, ids = corpus.suffix_table(3)
        for tid, token in enumerate(corpus.dictionary):
            derived = {terms.token_of(g) for g in ids[ptr[tid] : ptr[tid + 1]]}
            assert derived == set(suffixes(token, 3))

    def test_tables_are_cached(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        assert corpus.qgram_table(3) is corpus.qgram_table(3)
        assert corpus.suffix_table(4) is corpus.suffix_table(4)

    def test_expand_tokens_positions_track_inputs(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        rows, toks = corpus.distinct_profile_tokens(2)
        table = corpus.qgram_table(3)
        out_rows, grams, positions = corpus.expand_tokens(rows, toks, table)
        assert out_rows.tolist() == rows[positions].tolist()
        _, ptr, _ = table
        counts = (ptr[toks + 1] - ptr[toks]).tolist()
        assert len(grams) == sum(counts)


class TestSchemaConsumers:
    def test_entropies_equal_string_path(self, figure1_clean_clean):
        corpus = figure1_clean_clean.corpus
        for source, collection in (
            (0, figure1_clean_clean.collection1),
            (1, figure1_clean_clean.collection2),
        ):
            assert attribute_entropies(corpus, source) == string_entropies(
                collection, source
            )

    def test_attribute_memberships_equal_string_path(self, figure1_dirty):
        corpus = figure1_dirty.corpus
        refs, rows, tokens = corpus_memberships(corpus, 2)
        token_sets = {ref: set() for ref in refs}
        for row, tid in zip(rows.tolist(), tokens.tolist()):
            token_sets[refs[row]].add(corpus.dictionary.token_of(tid))
        assert token_sets == {
            profile.ref: profile.tokens
            for profile in build_attribute_profiles(figure1_dirty.collection1, 0)
        }


def profile_with(pid: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(pid, {"name": text})


def test_corpus_repr_mentions_sizes(figure1_dirty):
    text = repr(figure1_dirty.corpus)
    assert "profiles=4" in text and "vocabulary=" in text


def test_empty_dataset_corpus():
    dataset = ERDataset(
        EntityCollection([]), None, GroundTruth([], clean_clean=False)
    )
    corpus = dataset.corpus
    assert corpus.num_profiles == 0
    assert corpus.num_occurrences == 0
    rows, toks = corpus.distinct_profile_tokens(2)
    assert rows.size == 0 and toks.size == 0
    assert isinstance(InternedCorpus.build(dataset), InternedCorpus)
