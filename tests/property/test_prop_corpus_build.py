"""Property-based equivalence: the batched corpus build vs its oracle.

``InternedCorpus.build`` tokenizes values a batch at a time
(``tokenize_many``) and interns each batch's tokens in bulk; the loop it
replaced — one ``tokenize`` per value, one ``intern`` per occurrence —
lives on in ``tests/_corpus_oracles.py``.  Three layers of evidence:

* ``tokenize_many`` split at its boundaries equals per-value ``tokenize``
  over free text and over an alphabet chosen to break the batch contract
  (the boundary character itself, separators, combining marks,
  compatibility forms, context-sensitive case mappings);
* the built corpus equals the oracle's field for field — attribute table,
  arrays with their dtypes, every token id — with the batch size forced
  down to 1, 2, 3 and 7 values so a boundary falls everywhere;
* the same on every seeded generator, once as generated (pure ASCII, the
  byte-table branch) and once with a non-ASCII suffix planted in every
  batch (the Unicode branch on realistic shapes — no generator, golden or
  benchmark input exercises it otherwise).
"""

import pytest
from hypothesis import given, settings, strategies as st

from _corpus_oracles import assert_same_corpus, build_per_occurrence
from repro.data import (
    EntityCollection,
    EntityProfile,
    ERDataset,
    GroundTruth,
    InternedCorpus,
)
from repro.data import corpus as corpus_module
from repro.datasets import load_clean_clean, load_dirty
from repro.datasets.benchmarks import load_dbp_wide
from repro.utils.tokenize import VALUE_BOUNDARY, tokenize, tokenize_many

#: Characters that stress the join-normalize-split contract.
ADVERSARIAL = (
    "\x00", "\x1c", "\x1d", "\x1e", "\x1f", "_", "-", " ", "\t", "\n",
    "́", "̧", "ͅ",  # combining acute, cedilla, ypogegrammeni
    "３", "０", "①", "⑳",  # full-width and circled digits
    "ﬁ", "ß", "İ", "Σ", "σ", "ς", "´", "Å", "e", "A", "z", "7",
)  # fmt: skip

adversarial_text = st.text(alphabet=st.sampled_from(ADVERSARIAL), max_size=8)
values = st.one_of(st.text(max_size=12), adversarial_text, st.just(""), st.just("  "))


def split_at_boundaries(stream: list[str]) -> list[list[str]]:
    out: list[list[str]] = [[]]
    for token in stream:
        if token == VALUE_BOUNDARY:
            out.append([])
        else:
            out[-1].append(token)
    return out


def assert_matches_per_value(batch: list[str]) -> None:
    assert split_at_boundaries(tokenize_many(batch)) == [
        tokenize(value, 1) for value in batch
    ]


class TestTokenizeManyMatchesTokenize:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(values, min_size=1, max_size=8))
    def test_free_and_adversarial_text(self, batch):
        assert_matches_per_value(batch)

    @settings(deadline=None, max_examples=300)
    @given(st.lists(adversarial_text, min_size=1, max_size=8))
    def test_adversarial_alphabet_only(self, batch):
        assert_matches_per_value(batch)

    @settings(deadline=None, max_examples=100)
    @given(st.lists(st.text(alphabet="aB3 _-.\x00\x1f", max_size=8), min_size=1))
    def test_ascii_branch(self, batch):
        assert "".join(batch).isascii()
        assert_matches_per_value(batch)


# Profiles with repeated attribute names, token-less values ("...", a raw
# boundary character) and no pairs at all.
pair_values = st.one_of(
    st.sampled_from(("abram st", "Abram", "...", "\x00", "a_b-c", "St. ３０")),
    adversarial_text,
    st.text(max_size=6),
)
profiles = st.builds(
    lambda pid, pairs: EntityProfile(pid, tuple(pairs)),
    pid=st.uuids().map(str),
    pairs=st.lists(
        st.tuples(st.sampled_from(("name", "job", "name")), pair_values),
        min_size=0,
        max_size=4,
    ),
)
profile_lists = st.lists(
    profiles, min_size=0, max_size=8, unique_by=lambda p: p.profile_id
)
dirty_datasets = profile_lists.map(
    lambda items: ERDataset(
        EntityCollection(items, "web"), None, GroundTruth([], clean_clean=False)
    )
)
clean_clean_datasets = st.tuples(profile_lists, profile_lists).map(
    lambda pair: ERDataset(
        EntityCollection(pair[0], "S1"), EntityCollection(pair[1], "S2"), GroundTruth([])
    )
)


@pytest.mark.parametrize("batch_values", [1, 2, 3, 7])
class TestBuildMatchesOracle:
    @settings(deadline=None, max_examples=60)
    @given(dataset=st.one_of(dirty_datasets, clean_clean_datasets))
    def test_random_datasets(self, batch_values, dataset):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus_module, "_BATCH_VALUES", batch_values)
            built = InternedCorpus.build(dataset)
        assert_same_corpus(built, build_per_occurrence(dataset))


GENERATED = {
    **{
        name: (lambda name=name: load_clean_clean(name, scale=0.3, seed=5))
        for name in ("ar1", "ar2", "prd", "mov", "dbp")
    },
    **{
        name: (lambda name=name: load_dirty(name, scale=0.3, seed=5))
        for name in ("census", "cora", "cddb")
    },
    "dbp_wide": lambda: load_dbp_wide(300, 0.1, seed=7),
}


def with_unicode_in_every_batch(dataset: ERDataset, every: int) -> ERDataset:
    """*dataset* with a non-ASCII suffix on one value in every *every* values."""
    seen = 0

    def planted(collection: EntityCollection | None) -> EntityCollection | None:
        nonlocal seen
        if collection is None:
            return None
        out = []
        for profile in collection:
            pairs = []
            for name, value in profile.iter_pairs():
                pairs.append((name, value + " Ünï ﬁ３" if seen % every == 0 else value))
                seen += 1
            out.append(EntityProfile(profile.profile_id, tuple(pairs)))
        return EntityCollection(out, collection.name)

    return ERDataset(
        planted(dataset.collection1), planted(dataset.collection2), dataset.ground_truth
    )


@pytest.mark.parametrize("name", sorted(GENERATED))
class TestGeneratedDatasets:
    def test_as_generated_is_ascii_and_equal(self, name):
        dataset = GENERATED[name]()
        assert all(
            value.isascii()
            for _, profile in dataset.iter_profiles()
            for _, value in profile.iter_pairs()
        )
        assert_same_corpus(InternedCorpus.build(dataset), build_per_occurrence(dataset))

    def test_unicode_branch_on_the_same_shapes(self, name, monkeypatch):
        monkeypatch.setattr(corpus_module, "_BATCH_VALUES", 512)
        dataset = with_unicode_in_every_batch(GENERATED[name](), every=500)
        built = InternedCorpus.build(dataset)
        assert "ünï" in built.dictionary and "fi3" in built.dictionary
        assert_same_corpus(built, build_per_occurrence(dataset))
