"""Q-grams blocking [Gravano et al., VLDB 2001].

A schema-agnostic baseline from the paper's related work (Section 5): every
character q-gram of every token is a blocking key, trading more redundancy
(and typo tolerance) for larger blocks than Token Blocking.

Each *distinct* token is grammed exactly once through the corpus q-gram
table instead of re-deriving grams per occurrence.
"""

from __future__ import annotations

from repro.blocking._interned import collection_from_assignments
from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset
from repro.utils.tokenize import MIN_TOKEN_LENGTH


class QGramsBlocking:
    """Blocking on character q-grams of tokens.

    Parameters
    ----------
    q:
        The gram length; 3 (trigrams) is the customary default.
    """

    def __init__(self, q: int = 3) -> None:
        if q < 2:
            raise ValueError(f"q must be at least 2, got {q}")
        self.q = q

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* and return the q-gram block collection."""
        corpus = dataset.corpus
        rows, toks = corpus.distinct_profile_tokens(MIN_TOKEN_LENGTH)
        table = corpus.qgram_table(self.q)
        rows, grams, _ = corpus.expand_tokens(rows, toks, table)
        return collection_from_assignments(
            rows,
            grams,
            term_of=table[0].token_of,
            is_clean_clean=dataset.is_clean_clean,
            offset2=corpus.offset2,
        )
