"""Suffix-array blocking [de Vries et al., TKDD 2011].

Related-work baseline (Section 5): each sufficiently long suffix of each
token is a blocking key, and oversized blocks — suffixes shared by too many
profiles — are discarded, which is the technique's built-in frequency
pruning.

Each *distinct* token's suffixes are expanded exactly once through the
corpus suffix table, and oversized groups are dropped array-side before
any block object is materialized.
"""

from __future__ import annotations

from repro.blocking._interned import collection_from_assignments
from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset


class SuffixArrayBlocking:
    """Blocking on token suffixes with a maximum block size.

    Parameters
    ----------
    min_suffix_length:
        Shortest suffix used as a key.
    max_block_size:
        Blocks with more member profiles than this are dropped (the
        suffix-array equivalent of purging stop-word keys).
    """

    def __init__(self, min_suffix_length: int = 4, max_block_size: int = 50) -> None:
        if min_suffix_length < 1:
            raise ValueError("min_suffix_length must be positive")
        if max_block_size < 2:
            raise ValueError("max_block_size must allow at least one pair")
        self.min_suffix_length = min_suffix_length
        self.max_block_size = max_block_size

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* and return the suffix block collection."""
        corpus = dataset.corpus
        # suffixes() tokenizes with min_length=1, so every token expands.
        rows, toks = corpus.distinct_profile_tokens(1)
        table = corpus.suffix_table(self.min_suffix_length)
        rows, suffix_ids, _ = corpus.expand_tokens(rows, toks, table)
        return collection_from_assignments(
            rows,
            suffix_ids,
            term_of=table[0].token_of,
            is_clean_clean=dataset.is_clean_clean,
            offset2=corpus.offset2,
            max_block_size=self.max_block_size,
        )
