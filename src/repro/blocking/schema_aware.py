"""Loosely schema-aware Token Blocking (the paper's Phase 2, Figure 2).

Identical to Token Blocking except that each blocking key is disambiguated by
the attribute cluster it originates from: token ``abram`` occurring in a
person-name attribute and in a street attribute yields the distinct keys
``abram#1`` and ``abram#2``, splitting the block and removing superfluous
cross-role comparisons before meta-blocking even starts.

The blocker derives its keys from the dataset's interned corpus;
:func:`profile_blocking_keys` derives the same keys from one profile's
strings, for the streaming index (and, under ``tests/``, as the oracle the
corpus path is checked against).
"""

from __future__ import annotations

import numpy as np

from repro.blocking._interned import collection_from_assignments, group_assignments
from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset
from repro.data.profile import EntityProfile
from repro.schema.partition import AttributePartitioning
from repro.utils.tokenize import MIN_TOKEN_LENGTH, qgrams

#: Separator between token and cluster id in disambiguated keys.  Chosen
#: outside the normalized-token alphabet so keys can be split back apart.
KEY_SEPARATOR = "#"


def profile_blocking_keys(
    profile: EntityProfile,
    source: int,
    partitioning: AttributePartitioning | None = None,
    min_token_length: int = 2,
    transformation: str = "token",
    q: int = 3,
) -> set[str]:
    """The blocking keys of one profile, batch- and stream-identical.

    With a *partitioning* this is the disambiguated key set of
    :class:`LooselySchemaAwareBlocking` (``token#cluster``); without one it
    degenerates to the schema-agnostic Token Blocking key set.  The
    streaming :class:`repro.streaming.IncrementalBlockIndex` calls this same
    function, so an incrementally built index agrees key-for-key with the
    batch blockers.
    """
    if partitioning is None:
        kept = {t for t in profile.tokens() if len(t) >= min_token_length}
        if transformation == "token":
            return kept
        return {term for t in kept for term in _transform(t, transformation, q)}
    keys: set[str] = set()
    for attribute, tokens in profile.tokens_by_attribute().items():
        cluster = partitioning.cluster_of(source, attribute)
        if cluster is None:
            continue  # no glue cluster: attribute's tokens are dropped
        for token in tokens:
            if len(token) < min_token_length:
                continue
            for term in _transform(token, transformation, q):
                keys.add(f"{term}{KEY_SEPARATOR}{cluster}")
    return keys


def _transform(token: str, transformation: str, q: int) -> list[str]:
    if transformation == "token":
        return [token]
    return qgrams(token, q)


def split_key(key: str) -> tuple[str, int]:
    """Inverse of the key construction: ``"abram#2" -> ("abram", 2)``."""
    token, _, cluster = key.rpartition(KEY_SEPARATOR)
    return token, int(cluster)


def make_key_entropy(partitioning: AttributePartitioning) -> "ClusterKeyEntropy":
    """Blocking-key -> aggregate-entropy function for the blocking graph.

    Maps each disambiguated key (``token#cluster``) to the aggregate entropy
    of its attribute cluster, i.e. the ``h(b_i)`` of Section 3.1.3.  Pass the
    result as ``key_entropy`` to :class:`repro.graph.BlockingGraph` or
    :class:`repro.graph.MetaBlocker`.
    """
    return ClusterKeyEntropy(partitioning)


class ClusterKeyEntropy:
    """``h(b)`` of a disambiguated key: its cluster's aggregate entropy.

    Called on a key string, it parses the cluster id back out.  It also
    carries :attr:`table`, :meth:`AttributePartitioning.entropy_of` of
    every cluster id (1.0 for one without an entropy), so
    :meth:`repro.graph.entity_index.EntityIndex.block_entropies` reads the
    blockers' coded keys by cluster with :meth:`gather`.
    """

    separator = KEY_SEPARATOR

    def __init__(self, partitioning: AttributePartitioning) -> None:
        self.partitioning = partitioning
        self.table = self._entropies(max(partitioning.cluster_ids, default=-1) + 1)

    def _entropies(self, width: int) -> np.ndarray:
        entropy_of = self.partitioning.entropy_of
        return np.fromiter(map(entropy_of, range(width)), dtype=np.float64, count=width)

    def __call__(self, key: str) -> float:
        _, cluster = split_key(key)
        return self.partitioning.entropy_of(cluster)

    def gather(self, clusters: np.ndarray) -> np.ndarray:
        """The entropy of each non-negative cluster id of *clusters*."""
        width = int(clusters.max(initial=-1)) + 1
        table = self.table if width <= self.table.size else self._entropies(width)
        return table[clusters]


class LooselySchemaAwareBlocking:
    """Token Blocking with blocking keys disambiguated by attribute cluster.

    Parameters
    ----------
    partitioning:
        The attributes partitioning produced by LMI or Attribute Clustering.
        Attributes it does not cover fall into the glue cluster if the
        partitioning has one, otherwise their tokens are skipped (this is the
        no-glue mode the Figure 10 experiment relies on).
    min_token_length:
        Tokens shorter than this are not used as blocking keys.
    transformation:
        ``"token"`` (the paper's default) or ``"qgram"`` — Section 3.2 notes
        other key derivations, e.g. character q-grams, adapt to the same
        disambiguation scheme.
    q:
        Gram length when ``transformation="qgram"``.
    """

    def __init__(
        self,
        partitioning: AttributePartitioning,
        min_token_length: int = 2,
        transformation: str = "token",
        q: int = 3,
    ) -> None:
        if transformation not in ("token", "qgram"):
            raise ValueError(
                f"transformation must be 'token' or 'qgram', got {transformation!r}"
            )
        if q < 2:
            raise ValueError(f"q must be at least 2, got {q}")
        self.partitioning = partitioning
        self.min_token_length = min_token_length
        self.transformation = transformation
        self.q = q

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* and return the disambiguated block collection.

        Keys are ``(term_id, cluster_id)`` pairs packed into integer codes
        (``term * C + cluster``) from grouping to weighting; one reads as
        a ``token#cluster`` string only when someone asks for it.
        """
        corpus = dataset.corpus
        partitioning = self.partitioning
        cluster_map = np.fromiter(
            (
                -1 if cluster is None else cluster
                for cluster in (
                    partitioning.cluster_of(source, name)
                    for source, name in corpus.attributes
                )
            ),
            dtype=np.int64,
            count=len(corpus.attributes),
        )
        num_codes = np.int64(
            max(partitioning.cluster_ids, default=0) + 1
        )

        clusters = (
            cluster_map[corpus.attr_ids]
            if corpus.attr_ids.size
            else np.zeros(0, dtype=np.int64)
        )
        floor = max(self.min_token_length, MIN_TOKEN_LENGTH)
        mask = (clusters >= 0) & (
            corpus.token_lengths[corpus.token_ids] >= floor
        )
        rows = corpus.occurrence_rows[mask]
        toks = corpus.token_ids[mask].astype(np.int64)
        clusters = clusters[mask]

        if self.transformation == "token":
            terms = corpus.dictionary
            codes = toks * num_codes + clusters
        else:
            # Deduplicate (row, token, cluster) before the q-gram
            # expansion so each distinct assignment expands once.
            group_codes, starts, sizes, members = group_assignments(
                rows, toks * num_codes + clusters
            )
            pair_codes = np.repeat(group_codes, sizes)
            table = corpus.qgram_table(self.q)
            rows, grams, positions = corpus.expand_tokens(
                members, pair_codes // num_codes, table
            )
            terms = table[0]
            codes = grams * num_codes + (pair_codes % num_codes)[positions]

        return collection_from_assignments(
            rows,
            codes,
            term_of=terms.token_of,
            is_clean_clean=dataset.is_clean_clean,
            offset2=corpus.offset2,
            modulus=int(num_codes),
            separator=KEY_SEPARATOR,
        )
