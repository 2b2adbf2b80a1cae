"""The per-occurrence corpus build, kept as the test oracle.

This is the body ``InternedCorpus.build`` had before it became a batched
pass: every value goes through ``tokenize`` on its own, every token
occurrence through ``TokenDictionary.intern`` and two ``list.append``
calls.  It defines what the batched build must reproduce exactly — the
attribute table, the three arrays (dtype included) and, through
first-occurrence interning, the id of every token.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

import numpy as np

from repro.data.corpus import (
    MAX_TOKEN_ID,
    AttributeRef,
    InternedCorpus,
    TokenDictionary,
)
from repro.data.dataset import ERDataset
from repro.utils.tokenize import tokenize


def build_per_occurrence(dataset: ERDataset) -> InternedCorpus:
    """Tokenize *dataset* one value and intern it one occurrence at a time."""
    dictionary = TokenDictionary()
    attributes: list[AttributeRef] = []
    attr_index: dict[AttributeRef, int] = {}
    ptr: list[int] = [0]
    flat_attrs: list[int] = []
    flat_tokens: list[int] = []
    num_profiles = dataset.num_profiles
    if num_profiles > MAX_TOKEN_ID:
        raise OverflowError("corpus profile space exceeds int32")
    offset2 = dataset.offset2 if dataset.is_clean_clean else num_profiles
    intern = dictionary.intern
    append_attr = flat_attrs.append
    append_token = flat_tokens.append
    for gidx, profile in dataset.iter_profiles():
        source = 0 if gidx < offset2 else 1
        for name, value in profile.iter_pairs():
            ref = (source, name)
            aid = attr_index.get(ref)
            if aid is None:
                aid = len(attributes)
                attr_index[ref] = aid
                attributes.append(ref)
            for token in tokenize(value, min_length=1):
                append_attr(aid)
                append_token(intern(token))
        ptr.append(len(flat_tokens))
    return InternedCorpus(
        dictionary=dictionary,
        attributes=tuple(attributes),
        profile_ptr=np.asarray(ptr, dtype=np.int64),
        attr_ids=np.asarray(flat_attrs, dtype=np.int32),
        token_ids=np.asarray(flat_tokens, dtype=np.int32),
        offset2=offset2,
        is_clean_clean=dataset.is_clean_clean,
    )


def assert_same_corpus(actual: InternedCorpus, expected: InternedCorpus) -> None:
    """Field-for-field equality, array dtypes and token ids included."""
    assert actual.attributes == expected.attributes
    assert actual.offset2 == expected.offset2
    assert actual.is_clean_clean == expected.is_clean_clean
    for name in ("profile_ptr", "attr_ids", "token_ids"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert actual.dictionary.to_payload() == expected.dictionary.to_payload()
