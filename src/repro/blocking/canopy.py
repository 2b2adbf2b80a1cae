"""Canopy Clustering blocking [McCallum et al., SIGKDD 2000].

A schema-based baseline from the paper's related work (Section 5): profiles
are grouped into overlapping *canopies* using a cheap similarity (token-set
Jaccard here).  Repeatedly pick a random seed profile; every profile within
``loose_threshold`` joins its canopy; those within ``tight_threshold`` are
removed from the candidate pool and can seed no further canopy.  Canopies
become blocks.

Token sets come from the dataset's interned corpus: Jaccard over token-id
sets equals Jaccard over the token strings, and the corpus sets skip the
per-profile regex.
"""

from __future__ import annotations

from collections.abc import Mapping, Set

from repro.blocking.base import Block, BlockCollection
from repro.data.dataset import ERDataset
from repro.schema.similarity import jaccard
from repro.utils.rng import make_rng
from repro.utils.tokenize import MIN_TOKEN_LENGTH


class CanopyBlocking:
    """Canopy clustering over profile token sets.

    Parameters
    ----------
    loose_threshold:
        Minimum similarity to join a canopy (T2 in the original paper).
    tight_threshold:
        Similarity at which a profile is removed from the seed pool
        (T1 >= T2).
    seed:
        Seed-order randomness; fixed for reproducibility.
    """

    def __init__(
        self,
        loose_threshold: float = 0.15,
        tight_threshold: float = 0.5,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < loose_threshold <= tight_threshold <= 1.0:
            raise ValueError(
                "thresholds must satisfy 0 < loose <= tight <= 1, got "
                f"loose={loose_threshold}, tight={tight_threshold}"
            )
        self.loose_threshold = loose_threshold
        self.tight_threshold = tight_threshold
        self.seed = seed

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* and return the canopy block collection."""
        id_sets = dataset.corpus.profile_token_id_sets(MIN_TOKEN_LENGTH)
        return self.cluster(dict(enumerate(id_sets)), dataset)

    def cluster(
        self, tokens: Mapping[int, Set], dataset: ERDataset
    ) -> BlockCollection:
        """Canopies over *tokens*, one token set per global profile index."""
        rng = make_rng(self.seed)
        pool = list(tokens)
        order = [pool[i] for i in rng.permutation(len(pool))]
        available = set(pool)

        blocks: list[Block] = []
        serial = 0
        for seed_profile in order:
            if seed_profile not in available:
                continue
            available.discard(seed_profile)
            members = {seed_profile}
            seed_tokens = tokens[seed_profile]
            for other, other_tokens in tokens.items():
                if other == seed_profile:
                    continue
                similarity = jaccard(seed_tokens, other_tokens)
                if similarity >= self.loose_threshold:
                    members.add(other)
                    if similarity >= self.tight_threshold:
                        available.discard(other)
            block = self._to_block(f"canopy{serial}", members, dataset)
            if block is not None:
                blocks.append(block)
                serial += 1
        return BlockCollection(blocks, dataset.is_clean_clean)

    @staticmethod
    def _to_block(key: str, members: set[int], dataset: ERDataset) -> Block | None:
        if dataset.is_clean_clean:
            offset = dataset.offset2
            left = frozenset(m for m in members if m < offset)
            right = frozenset(m for m in members if m >= offset)
            if left and right:
                return Block(key, left, right)
            return None
        if len(members) >= 2:
            return Block(key, frozenset(members))
        return None
