"""Tests for the value transformation functions (repro.utils.tokenize)."""

import pytest

from repro.utils.tokenize import (
    VALUE_BOUNDARY,
    normalize,
    qgrams,
    suffixes,
    token_set,
    tokenize,
    tokenize_many,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("ABRAM") == "abram"

    def test_collapses_punctuation_to_spaces(self):
        assert normalize("Abram st. 30, NY") == "abram st 30 ny"

    def test_strips_edges(self):
        assert normalize("  hello  ") == "hello"

    def test_underscore_is_a_separator(self):
        assert normalize("main_street") == "main street"

    def test_empty_string(self):
        assert normalize("") == ""

    def test_only_punctuation(self):
        assert normalize("... --- !!!") == ""

    def test_unicode_casefold(self):
        assert normalize("STRASSE") == normalize("strasse")

    def test_nfkc_fullwidth_digits(self):
        # Full-width digits are visually identical to ASCII digits and
        # must land in the same block.
        assert normalize("３０") == "30"
        assert normalize("Abram ３０") == normalize("Abram 30")

    def test_nfkc_ligatures(self):
        assert normalize("ﬁle") == "file"
        assert normalize("oﬃce") == normalize("office")

    def test_nfkc_compatibility_forms(self):
        assert normalize("Ⅳ") == normalize("iv")  # Roman numeral sign
        assert normalize("ｅｌｌｅｎ") == "ellen"  # full-width letters

    def test_nfkc_runs_before_casefold(self):
        # The full-width capital A only reaches 'a' if NFKC maps it to
        # ASCII 'A' first and casefold then lowers it.
        assert normalize("Ａ１") == "a1"


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("Abram St. 30 NY") == ["abram", "st", "30", "ny"]

    def test_min_length_drops_short_tokens(self):
        assert tokenize("a b ab abc", min_length=2) == ["ab", "abc"]

    def test_min_length_one_keeps_everything(self):
        assert tokenize("a b", min_length=1) == ["a", "b"]

    def test_preserves_duplicates(self):
        # Entropy extraction counts frequencies, so duplicates must survive.
        assert tokenize("st st st") == ["st", "st", "st"]

    def test_empty_value(self):
        assert tokenize("") == []


class TestTokenizeMany:
    """Pinned cases; the property suite (test_prop_corpus_build) hammers it."""

    B = VALUE_BOUNDARY

    def test_one_boundary_between_consecutive_values(self):
        assert tokenize_many(["Abram St.", "30 NY"]) == ["abram", "st", self.B, "30", "ny"]
        assert tokenize_many(["Abram St."]) == ["abram", "st"]
        assert tokenize_many([]) == []

    def test_values_without_tokens_keep_their_boundaries(self):
        assert tokenize_many(["", "...", " ", "a"]) == [self.B, self.B, self.B, "a"]
        assert tokenize_many(["", ""]) == [self.B]

    def test_single_character_tokens_are_kept(self):
        assert tokenize_many(["a b", "c"]) == ["a", "b", self.B, "c"]

    @pytest.mark.parametrize("tail", ["", " é"], ids=["ascii", "unicode"])
    def test_boundary_character_inside_a_value_is_a_separator(self, tail):
        values = ["a\x00b", "\x00", "c" + tail]
        expected = ["a", "b", self.B, self.B, "c", *tokenize(tail, 1)]
        assert tokenize_many(values) == expected

    def test_unicode_batch_matches_per_value_normalization(self):
        values = ["３０ Ａbram", "ﬁn", "Straße", "İx", "ΣΑΣ", "x"]
        stream = tokenize_many(values)
        assert stream.count(self.B) == len(values) - 1
        assert [t for t in stream if t != self.B] == [
            token for value in values for token in tokenize(value, 1)
        ]

    def test_leading_combining_mark_does_not_reach_across_the_boundary(self):
        # NFKC would compose "e" + U+0301 if nothing stood between them.
        assert tokenize_many(["e", "\u0301a"]) == ["e", self.B, "a"]
        assert tokenize("e\u0301a", 1) == ["éa"]

    def test_underscore_and_separators_split_in_the_ascii_branch(self):
        assert tokenize_many(["a_b-c\x1fd", "E"]) == ["a", "b", "c", "d", self.B, "e"]


class TestTokenSet:
    def test_union_over_values(self):
        assert token_set(["alpha beta", "beta gamma"]) == {"alpha", "beta", "gamma"}

    def test_empty_iterable(self):
        assert token_set([]) == set()


class TestQgrams:
    def test_sliding_window(self):
        assert qgrams("abcd", q=3) == ["abc", "bcd"]

    def test_short_value_yields_whole_string(self):
        assert qgrams("ny", q=3) == ["ny"]

    def test_normalizes_and_joins_tokens(self):
        # spaces removed before gramming: "ab cd" -> "abcd"
        assert qgrams("AB cd", q=4) == ["abcd"]

    def test_empty_value(self):
        assert qgrams("", q=3) == []

    def test_invalid_q_raises(self):
        with pytest.raises(ValueError, match="q must be positive"):
            qgrams("abc", q=0)

    def test_negative_q_raises(self):
        with pytest.raises(ValueError, match="q must be positive"):
            qgrams("abc", q=-3)

    def test_q_one_yields_characters(self):
        assert qgrams("abc", q=1) == ["a", "b", "c"]

    def test_tokenize_applies_nfkc(self):
        # Regression: visually-identical tokens intern to one blocking key.
        assert tokenize("Abram ３０") == tokenize("abram 30")

    def test_exact_length_value(self):
        assert qgrams("abc", q=3) == ["abc"]


class TestSuffixes:
    def test_all_long_suffixes(self):
        assert list(suffixes("abram", min_length=4)) == ["abram", "bram"]

    def test_short_token_yields_itself(self):
        assert list(suffixes("ny", min_length=4)) == ["ny"]

    def test_multiple_tokens(self):
        out = list(suffixes("main st", min_length=3))
        assert "main" in out and "ain" in out

    def test_empty_value(self):
        assert list(suffixes("", min_length=4)) == []
