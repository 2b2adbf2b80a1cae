"""Property-based bit-identity of the grouped attribute entropies.

``attribute_entropies`` computes every attribute's Shannon entropy at once:
one ``(c/t) * log2(c/t)`` per distinct ``(count, total)`` pair, numpy for
runs of one or two terms, ``math.fsum`` for longer runs.  Each entropy
must equal :func:`shannon_entropy` of the same counts to the last bit
(compared by ``float.hex``, so ``-0.0`` and ``0.0`` differ too).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from _schema_oracles import string_entropies
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.schema.entropy import (
    _grouped_entropies,
    attribute_entropies,
    shannon_entropy,
)

counts = st.one_of(
    st.integers(1, 5),
    st.integers(1, 10**6),
    st.integers(10**9, 10**12),  # large totals
)

groups = st.one_of(
    st.lists(counts, min_size=1, max_size=1),  # singletons
    st.lists(counts, min_size=2, max_size=2),
    st.tuples(counts, st.integers(1, 30)).map(lambda c: [c[0]] * c[1]),  # all equal
    st.lists(counts, min_size=3, max_size=30),
)


class TestGroupedEntropies:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(groups, min_size=1, max_size=12))
    def test_equals_shannon_entropy(self, runs):
        flat = np.asarray([c for run in runs for c in run], dtype=np.int64)
        lengths = [len(run) for run in runs]
        starts = np.cumsum([0] + lengths[:-1]).astype(np.int64)
        got = _grouped_entropies(flat, starts)
        assert [h.hex() for h in got.tolist()] == [
            shannon_entropy(run).hex() for run in runs
        ]


ATTRIBUTES = ("name", "job", "city", "zip")
WORDS = ("abram", "ellen", "st", "a", "b", "york", "10", "main")

profiles = st.builds(
    lambda pid, pairs: EntityProfile(pid, tuple(pairs)),
    pid=st.uuids().map(str),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(ATTRIBUTES),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join),
        ),
        max_size=6,
    ),
)
profile_lists = st.lists(profiles, min_size=1, max_size=12).map(
    lambda items: list({p.profile_id: p for p in items}.values())
)
datasets = st.one_of(
    profile_lists.map(
        lambda items: ERDataset(
            EntityCollection(items, "web"),
            None,
            GroundTruth([], clean_clean=False),
            name="entropy-dirty",
        )
    ),
    st.tuples(profile_lists, profile_lists).map(
        lambda pair: ERDataset(
            EntityCollection(pair[0], "S1"),
            EntityCollection(
                [EntityProfile("e2-" + p.profile_id, p.attributes) for p in pair[1]],
                "S2",
            ),
            GroundTruth([]),
            name="entropy-cc",
        )
    ),
)


class TestAttributeEntropies:
    @settings(deadline=None, max_examples=60)
    @given(datasets, st.sampled_from([1, 2, 3]))
    def test_equals_counter_oracle_bit_for_bit(self, dataset, floor):
        for source, collection in enumerate(
            (dataset.collection1, dataset.collection2)
        ):
            if collection is None:
                continue
            got = attribute_entropies(dataset.corpus, source, floor)
            want = string_entropies(collection, source, floor)
            assert {ref: h.hex() for ref, h in got.items()} == {
                ref: h.hex() for ref, h in want.items()
            }
