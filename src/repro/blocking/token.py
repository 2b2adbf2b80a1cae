"""Token Blocking [Papadakis et al., TKDE 2013] — the paper's Section 3.2.

The most general schema-agnostic technique: every token appearing anywhere in
a profile's values is a blocking key, regardless of the attribute it appears
in.  High recall, low precision — exactly the redundancy the meta-blocking
phase is designed to exploit.

Keys are derived from the dataset's interned corpus (token-id arrays, one
shared tokenization pass); the string-keyed reference lives in
``tests/_blocker_oracles.py``.
"""

from __future__ import annotations

from repro.blocking._interned import collection_from_assignments
from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset
from repro.utils.tokenize import MIN_TOKEN_LENGTH


class TokenBlocking:
    """Schema-agnostic token blocking.

    Parameters
    ----------
    min_token_length:
        Tokens shorter than this are not used as blocking keys.
    """

    def __init__(self, min_token_length: int = 2) -> None:
        self.min_token_length = min_token_length

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* and return the token block collection."""
        corpus = dataset.corpus
        # EntityProfile.tokens() applies the default length floor before a
        # blocker ever sees a token, so the effective floor is the max.
        rows, toks = corpus.distinct_profile_tokens(
            max(self.min_token_length, MIN_TOKEN_LENGTH)
        )
        return collection_from_assignments(
            rows,
            toks,
            term_of=corpus.dictionary.token_of,
            is_clean_clean=dataset.is_clean_clean,
            offset2=corpus.offset2,
        )
