"""Entropy extraction (Section 3.1.3).

The information content of an attribute is its Shannon entropy ``H(X) =
-sum p(x) log2 p(x)`` over the empirical distribution of its values'
*tokens* — the same granularity as the blocking keys Token Blocking derives
from it.  A cluster of attributes carries the *aggregate entropy*
``H(C_k) = (1/|C_k|) * sum_{A_j in C_k} H(A_j)``, which the BLAST weighting
function later applies as the multiplicative factor ``h(B_uv)``.

Token frequencies come from the dataset's interned corpus when one is
supplied — per-``(attribute, token)`` id counts from a single shared
tokenization pass — and fall back to Counter-over-strings otherwise.  Both
paths produce identical entropies: :func:`shannon_entropy` sums with
``math.fsum``, which rounds exactly regardless of term order, so the
id-sorted corpus counts and the insertion-ordered Counter agree bit for
bit.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

from repro.data.collection import EntityCollection
from repro.schema.partition import AttributePartitioning, AttributeRef
from repro.utils.tokenize import tokenize

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.corpus import InternedCorpus


def shannon_entropy(frequencies: Iterable[int]) -> float:
    """Entropy in bits of the distribution given by raw *frequencies*.

    The term sum uses ``math.fsum`` (exactly rounded), so the result does
    not depend on the order the frequencies arrive in — Counter order and
    token-id order yield the same float.

    >>> shannon_entropy([1, 1])  # two equiprobable values
    1.0
    >>> shannon_entropy([4])  # fully predictable
    0.0
    """
    counts = [c for c in frequencies if c > 0]
    total = sum(counts)
    if total == 0:
        return 0.0
    return -math.fsum(
        (count / total) * math.log2(count / total) for count in counts
    )


def attribute_entropies(
    collection: EntityCollection,
    source: int,
    min_token_length: int = 2,
    corpus: "InternedCorpus | None" = None,
) -> dict[AttributeRef, float]:
    """Shannon entropy of every attribute of *collection*.

    Token occurrences are counted across all values of the attribute (with
    multiplicity — a token repeated in many records makes the attribute more
    predictable, lowering its entropy).  With the dataset's *corpus*, the
    counts come from its interned ``(attribute, token)`` id arrays and the
    attribute space from its refs of *source* — every ``(name, value)``
    pair got an attribute id before tokenizing — so nothing is re-tokenized
    and the collection is not walked.
    """
    if corpus is not None:
        return _attribute_entropies_interned(source, min_token_length, corpus)
    counters: dict[str, Counter[str]] = {}
    for profile in collection:
        for name, value in profile.iter_pairs():
            counter = counters.setdefault(name, Counter())
            counter.update(tokenize(value, min_token_length))
    out: dict[AttributeRef, float] = {}
    for name in collection.attribute_names:
        counter = counters.get(name, Counter())
        out[(source, name)] = shannon_entropy(counter.values())
    return out


def _attribute_entropies_interned(
    source: int, min_token_length: int, corpus: "InternedCorpus"
) -> dict[AttributeRef, float]:
    import numpy as np

    attrs, _, counts = corpus.attribute_term_counts(source, min_token_length)
    by_attr: dict[int, float] = {}
    if attrs.size:
        starts = np.flatnonzero(np.r_[True, attrs[1:] != attrs[:-1]])
        ends = np.r_[starts[1:], attrs.size]
        counts_list = counts.tolist()
        for start, end, attr in zip(
            starts.tolist(), ends.tolist(), attrs[starts].tolist()
        ):
            by_attr[attr] = shannon_entropy(counts_list[start:end])
    return {
        ref: by_attr.get(aid, 0.0)
        for aid, ref in enumerate(corpus.attributes)
        if ref[0] == source
    }


def aggregate_entropies(
    partitioning: AttributePartitioning,
    entropies: Mapping[AttributeRef, float],
) -> dict[int, float]:
    """Aggregate entropy per cluster: the mean of its members' entropies.

    Attributes missing from *entropies* contribute 0 bits (they produced no
    tokens, so their keys never fire anyway).
    """
    out: dict[int, float] = {}
    for cluster_id in partitioning.cluster_ids:
        members = partitioning.members(cluster_id)
        if not members:
            out[cluster_id] = 0.0
            continue
        # fsum, not sum (RL005): members is a frozenset whose iteration
        # order follows PYTHONHASHSEED, so a left-to-right float sum could
        # drift in the last bit between runs; fsum rounds exactly once,
        # independent of term order.
        out[cluster_id] = math.fsum(
            entropies.get(ref, 0.0) for ref in members
        ) / len(members)
    return out


def extract_loose_schema_entropies(
    partitioning: AttributePartitioning,
    collection1: EntityCollection,
    collection2: EntityCollection | None = None,
    corpus: "InternedCorpus | None" = None,
    min_token_length: int = 2,
) -> AttributePartitioning:
    """Attach aggregate entropies to *partitioning* (Phase 1, step 2).

    *min_token_length* is the blocker's token floor: entropies are taken
    over the tokens that become blocking keys.  Returns a new partitioning;
    the input is unchanged.
    """
    entropies = attribute_entropies(collection1, 0, min_token_length, corpus)
    if collection2 is not None:
        entropies.update(
            attribute_entropies(collection2, 1, min_token_length, corpus)
        )
    return partitioning.with_entropies(aggregate_entropies(partitioning, entropies))
