"""Entropy extraction (Section 3.1.3).

The information content of an attribute is its Shannon entropy ``H(X) =
-sum p(x) log2 p(x)`` over the empirical distribution of its values'
*tokens* — the same granularity as the blocking keys Token Blocking derives
from it.  A cluster of attributes carries the *aggregate entropy*
``H(C_k) = (1/|C_k|) * sum_{A_j in C_k} H(A_j)``, which the BLAST weighting
function later applies as the multiplicative factor ``h(B_uv)``.

Token frequencies are the per-``(attribute, token)`` id counts of the
dataset's interned corpus, from its single shared tokenization pass.
:func:`shannon_entropy` sums with ``math.fsum``, which rounds exactly
regardless of term order, so the id-sorted counts give the same float as
any other order of the same counts.  :func:`attribute_entropies` takes
every attribute at once and equals it bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from typing import TYPE_CHECKING

import numpy as np

from repro.schema.partition import AttributePartitioning, AttributeRef
from repro.utils.arrays import sorted_unique, stable_sort

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.corpus import InternedCorpus


def shannon_entropy(frequencies: Iterable[int]) -> float:
    """Entropy in bits of the distribution given by raw *frequencies*.

    The term sum uses ``math.fsum`` (exactly rounded), so the result does
    not depend on the order the frequencies arrive in.

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
    corpus: "InternedCorpus", source: int, min_token_length: int = 2
) -> dict[AttributeRef, float]:
    """Shannon entropy of every attribute of *source* in *corpus*.

    Token occurrences are counted across all values of the attribute (with
    multiplicity — a token repeated in many records makes the attribute more
    predictable, lowering its entropy).  The counts come from the corpus'
    interned ``(attribute, token)`` id arrays and the attribute space from
    its refs of *source* — every ``(name, value)`` pair got an attribute id
    before tokenizing — so nothing is re-tokenized.
    """
    attrs, _, counts = corpus.attribute_term_counts(source, min_token_length)
    by_attr: dict[int, float] = {}
    if attrs.size:
        starts = np.flatnonzero(np.r_[True, attrs[1:] != attrs[:-1]])
        by_attr = dict(
            zip(attrs[starts].tolist(), _grouped_entropies(counts, starts).tolist())
        )
    return {
        ref: by_attr.get(aid, 0.0)
        for aid, ref in enumerate(corpus.attributes)
        if ref[0] == source
    }


def _grouped_entropies(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """:func:`shannon_entropy` of each run ``counts[starts[g]:starts[g + 1]]``,
    bit for bit.

    Each distinct ``(total, count)`` pair gets its term
    ``(c/t) * log2(c/t)`` once, in ``math`` as :func:`shannon_entropy`
    computes it; pairs are deduplicated by one sort of
    ``rank(total) * width + count``, which stays far below 2**63 for
    counts of occurrences held in memory.  A run of one or two terms is
    negated (and added) in numpy: one IEEE addition is exactly rounded, so
    it equals ``math.fsum`` of the two.  Only longer runs call
    ``math.fsum``.
    """
    lengths = np.diff(np.r_[starts, counts.size])
    group_totals = np.add.reduceat(counts, starts)
    totals = sorted_unique(group_totals)
    width = int(counts.max()) + 1
    keys = np.repeat(np.searchsorted(totals, group_totals) * width, lengths)
    keys += counts
    order = stable_sort(keys)
    first = np.r_[True, keys[1:] != keys[:-1]]
    pair_of = np.empty_like(order)
    pair_of[order] = np.cumsum(first) - 1
    pairs = keys[first]
    table = [
        (count / total) * math.log2(count / total)
        for total, count in zip(
            totals[pairs // width].tolist(), (pairs % width).tolist()
        )
    ]
    terms = np.asarray(table, dtype=np.float64)[pair_of]
    entropies = -terms[starts]
    double = starts[lengths == 2]
    entropies[lengths == 2] = -(terms[double] + terms[double + 1])
    long = np.flatnonzero(lengths > 2)
    terms_list = terms.tolist()
    bounds = np.r_[starts, counts.size].tolist()
    entropies[long] = [
        -math.fsum(terms_list[bounds[group] : bounds[group + 1]])
        for group in long.tolist()
    ]
    return entropies


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
    corpus: "InternedCorpus",
    min_token_length: int = 2,
) -> AttributePartitioning:
    """Attach aggregate entropies to *partitioning* (Phase 1, step 2).

    *min_token_length* is the blocker's token floor: entropies are taken
    over the tokens that become blocking keys.  Returns a new partitioning;
    the input is unchanged.
    """
    entropies: dict[AttributeRef, float] = {}
    for source in (0, 1) if corpus.is_clean_clean else (0,):
        entropies.update(attribute_entropies(corpus, source, min_token_length))
    return partitioning.with_entropies(aggregate_entropies(partitioning, entropies))
