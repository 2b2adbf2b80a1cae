"""Differential suite: the LSH step on corpus ids vs the string loops.

``repro.lsh`` hashes each distinct token once, takes every signature column
with one ``np.minimum.reduceat`` over the ``(attribute, token)`` memberships
and bands through the attribute graph's shard kernel.
``tests/_lsh_oracles.py`` keeps the per-set string loop and the
``dict[bytes]`` bucket loop they replaced.  Hypothesis demands the same
signatures bit for bit, the same candidate pairs, and — through
``tests/_blocker_oracles.py::string_schema`` (string profiles, string LSH,
pair-by-pair LMI / AC, ``Counter`` entropies) — the same partitioning from
``SchemaExtraction(use_lsh=True)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _blocker_oracles import string_schema
from _lsh_oracles import banded_pairs, signatures_per_row
from _schema_oracles import build_attribute_profiles
from repro.core.config import BlastConfig
from repro.core.stages import SchemaExtraction
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.lsh import LSHBanding, MinHasher
from repro.lsh.minhash import hash_tokens
from repro.schema.attribute_graph import corpus_memberships

ATTRIBUTES = tuple(f"attr{i}" for i in range(6))
WORDS = ("ab", "abram", "ellen", "smith", "jo", "retail", "seller", "york",
         "main", "st", "x", "street")

profiles = st.builds(
    lambda pid, pairs: EntityProfile(str(pid), tuple(pairs)),
    pid=st.integers(0, 10**6),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(ATTRIBUTES),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join),
        ),
        max_size=5,
    ),
)
profile_lists = st.lists(profiles, min_size=1, max_size=8, unique_by=lambda p: p.profile_id)


@st.composite
def datasets(draw):
    left = EntityCollection(draw(profile_lists), "S1")
    if not draw(st.booleans()):
        return ERDataset(left, None, GroundTruth([], clean_clean=False))
    right = EntityCollection(draw(profile_lists), "S2")
    return ERDataset(left, right, GroundTruth([]))


token_sets = st.lists(
    st.one_of(
        st.frozensets(st.sampled_from(WORDS), max_size=5),  # may be empty
        st.lists(st.sampled_from(WORDS), max_size=5),  # duplicates allowed
    ),
    max_size=8,
)
num_hashes = st.integers(min_value=1, max_value=24)
seeds = st.integers(min_value=0, max_value=2**16)


class TestSignatures:
    @settings(deadline=None, max_examples=200)
    @given(token_sets, num_hashes, seeds)
    def test_adapter_equals_string_loop(self, sets, n, seed):
        hasher = MinHasher(num_hashes=n, seed=seed)
        got = hasher.signatures(sets)
        assert got.dtype == np.uint64
        assert np.array_equal(got, signatures_per_row(hasher, sets))

    @settings(deadline=None, max_examples=100)
    @given(datasets(), st.sampled_from([1, 2, 4]), num_hashes, seeds)
    def test_corpus_kernel_equals_string_loop(self, dataset, floor, n, seed):
        corpus = dataset.corpus
        refs, rows, tokens = corpus_memberships(corpus, floor)
        hasher = MinHasher(num_hashes=n, seed=seed)
        got = hasher.row_signatures(
            rows, hash_tokens(tokens, corpus.dictionary.token_of), len(refs)
        )
        string_profiles = [
            profile
            for source, collection in ((0, dataset.collection1), (1, dataset.collection2))
            if collection is not None
            for profile in build_attribute_profiles(collection, source, floor)
        ]
        assert [profile.ref for profile in string_profiles] == refs
        want = signatures_per_row(hasher, [p.tokens for p in string_profiles])
        assert np.array_equal(got, want)


#: Signature values: a tiny pool, so bands collide often; the top of the
#: range is where the empty-set sentinels live.
VALUES = (0, 1, 2, 2**63, 2**64 - 2, 2**64 - 1)


@st.composite
def banding_tasks(draw):
    bands = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(0, 10))
    pool = draw(st.integers(1, len(VALUES)))  # 1: every signature equal
    cells = draw(
        st.lists(
            st.sampled_from(VALUES[:pool]),
            min_size=n * bands * rows,
            max_size=n * bands * rows,
        )
    )
    signatures = np.asarray(cells, dtype=np.uint64).reshape(n, bands * rows)
    clean_clean = draw(st.booleans())
    left = draw(st.integers(0, n)) if clean_clean else n
    refs = [(0, f"n{i:02d}") for i in range(left)] + [
        (1, f"n{i:02d}") for i in range(n - left)
    ]
    return LSHBanding(bands, rows), signatures, refs, clean_clean


def _assert_banding_matches(banding, signatures, refs, clean_clean):
    got = banding.candidate_pairs(signatures, refs, clean_clean)
    sources = [source for source, _ in refs] if clean_clean else None
    assert got.dtype == np.int64 and got.shape[1] == 2
    assert got.tolist() == [list(p) for p in sorted(banded_pairs(banding, signatures, sources))]


class TestBanding:
    @settings(deadline=None, max_examples=300)
    @given(banding_tasks())
    def test_candidates_equal_bucket_loop(self, task):
        _assert_banding_matches(*task)

    @pytest.mark.parametrize("bands, rows", [(1, 1), (1, 4), (4, 1)])
    @pytest.mark.parametrize("clean_clean", [False, True])
    def test_all_equal_signatures(self, bands, rows, clean_clean):
        signatures = np.full((5, bands * rows), 7, dtype=np.uint64)
        refs = [(0, "a"), (0, "b"), (1, "c"), (1, "d"), (1, "e")]
        if not clean_clean:
            refs = [(0, name) for _, name in refs]
        _assert_banding_matches(LSHBanding(bands, rows), signatures, refs, clean_clean)


class TestStage:
    @settings(deadline=None, max_examples=120)
    @given(
        datasets(),
        st.sampled_from([0.1, 0.3, 0.5, 0.8]),
        st.sampled_from([2, 4]),
        st.booleans(),
        st.sampled_from(["lmi", "ac"]),
        st.sampled_from([None, 7]),
    )
    def test_lsh_extraction_equals_string_oracle(
        self, dataset, threshold, floor, glue_cluster, induction, seed
    ):
        config = BlastConfig(
            induction=induction,
            use_lsh=True,
            lsh_threshold=threshold,
            lsh_num_hashes=24,
            min_token_length=floor,
            glue_cluster=glue_cluster,
            seed=seed,
        )
        got = SchemaExtraction(config).extract(dataset)
        assert got.to_dict() == string_schema(dataset, config).to_dict()
