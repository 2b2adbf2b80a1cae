"""Set-based LMI / Attribute Clustering, kept as the test oracle.

These are the ``induce`` bodies ``repro.schema.lmi`` and
``repro.schema.attribute_clustering`` had before they became one array
path over the attribute x token index: every pair of the cross product
(or of the candidate list) is scored with a Python ``similarity(set, set)``
call, maxima and best partners live in dicts, and the clusters come from a
``UnionFind`` over refs.  They touch no numpy and define the partitioning
the arrays must reproduce exactly — members, cluster ids, glue.

One documented difference: handed a same-source candidate pair in a
clean-clean call, the oracle scores it (the arrays ignore it, as Algorithm
1 scores A1 x A2 only), so differential tests draw cross-source candidates.

The string inputs live here too: :func:`build_attribute_profiles`
re-tokenizes every value into per-attribute token sets, and
:func:`string_entropies` counts tokens with a ``Counter`` — what
``repro.schema`` reads from the interned corpus.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Set

from repro.data.collection import EntityCollection
from repro.schema.attribute_profile import AttributeProfile
from repro.schema.entropy import aggregate_entropies, shannon_entropy
from repro.schema.partition import AttributePartitioning, AttributeRef
from repro.schema.similarity import jaccard
from repro.utils.tokenize import tokenize
from repro.utils.unionfind import UnionFind

SimilarityFn = Callable[[Set[str], Set[str]], float]
CandidatePairs = Iterable[tuple[AttributeRef, AttributeRef]]


def _by_ref(
    profiles1: Iterable[AttributeProfile],
    profiles2: Iterable[AttributeProfile] | None,
) -> dict[AttributeRef, AttributeProfile]:
    by_ref: dict[AttributeRef, AttributeProfile] = {}
    for profile in profiles1:
        by_ref[profile.ref] = profile
    if profiles2 is not None:
        for profile in profiles2:
            if profile.ref in by_ref:
                raise ValueError(f"duplicate attribute ref {profile.ref!r}")
            by_ref[profile.ref] = profile
    return by_ref


def _pairs_to_score(
    by_ref: dict[AttributeRef, AttributeProfile],
    clean_clean: bool,
    candidate_pairs: CandidatePairs | None,
) -> list[tuple[AttributeRef, AttributeRef]]:
    if candidate_pairs is not None:
        deduped = {
            (min(a, b), max(a, b))
            for a, b in candidate_pairs
            if a != b and a in by_ref and b in by_ref
        }
        return sorted(deduped)
    refs = sorted(by_ref)
    if clean_clean:
        left = [r for r in refs if r[0] == 0]
        right = [r for r in refs if r[0] == 1]
        return [(a, b) for a in left for b in right]
    return [(refs[i], refs[j]) for i in range(len(refs)) for j in range(i + 1, len(refs))]


def _partitioning(
    by_ref: dict[AttributeRef, AttributeProfile],
    links: UnionFind,
    glue_cluster: bool,
) -> AttributePartitioning:
    # Line 17: components with cardinality > 1 are the clusters.
    clusters = [c for c in links.components() if len(c) > 1]
    clustered = set().union(*clusters) if clusters else set()
    singletons = set(by_ref) - clustered
    return AttributePartitioning(
        clusters=sorted(clusters, key=lambda c: sorted(c)),
        glue=singletons if glue_cluster else None,
    )


def lmi_oracle(
    profiles1: Iterable[AttributeProfile],
    profiles2: Iterable[AttributeProfile] | None = None,
    candidate_pairs: CandidatePairs | None = None,
    *,
    alpha: float = 0.9,
    glue_cluster: bool = True,
    similarity: SimilarityFn = jaccard,
) -> AttributePartitioning:
    """Algorithm 1, pair by pair."""
    by_ref = _by_ref(profiles1, profiles2)
    pairs = _pairs_to_score(by_ref, profiles2 is not None, candidate_pairs)

    # Pass 1 (Algorithm 1, lines 2-8): similarities and per-attribute maxima.
    sims: dict[tuple[AttributeRef, AttributeRef], float] = {}
    max_sim: dict[AttributeRef, float] = {}
    for ref_i, ref_j in pairs:
        value = similarity(by_ref[ref_i].tokens, by_ref[ref_j].tokens)
        if value <= 0.0:
            continue
        sims[(ref_i, ref_j)] = value
        if value > max_sim.get(ref_i, 0.0):
            max_sim[ref_i] = value
        if value > max_sim.get(ref_j, 0.0):
            max_sim[ref_j] = value

    # Pass 2 (lines 9-13): candidate generation against alpha * max.
    candidates: dict[AttributeRef, set[AttributeRef]] = {}
    for (ref_i, ref_j), value in sims.items():
        if value >= alpha * max_sim[ref_i]:
            candidates.setdefault(ref_i, set()).add(ref_j)
        if value >= alpha * max_sim[ref_j]:
            candidates.setdefault(ref_j, set()).add(ref_i)

    # Pass 3 (lines 14-16): mutual candidates become edges.
    links = UnionFind(by_ref.keys())
    for ref_i, cands in candidates.items():
        for ref_j in cands:
            if ref_i in candidates.get(ref_j, ()):  # mutual
                links.union(ref_i, ref_j)
    return _partitioning(by_ref, links, glue_cluster)


def ac_oracle(
    profiles1: Iterable[AttributeProfile],
    profiles2: Iterable[AttributeProfile] | None = None,
    candidate_pairs: CandidatePairs | None = None,
    *,
    glue_cluster: bool = True,
    similarity: SimilarityFn = jaccard,
) -> AttributePartitioning:
    """Best-match linking, pair by pair."""
    by_ref = _by_ref(profiles1, profiles2)
    pairs = _pairs_to_score(by_ref, profiles2 is not None, candidate_pairs)

    # Track each attribute's best partner; ties resolved toward the
    # lexicographically smaller ref for determinism.
    best: dict[AttributeRef, tuple[float, AttributeRef]] = {}
    for ref_i, ref_j in pairs:
        value = similarity(by_ref[ref_i].tokens, by_ref[ref_j].tokens)
        if value <= 0.0:
            continue
        if ref_i not in best or value > best[ref_i][0]:
            best[ref_i] = (value, ref_j)
        if ref_j not in best or value > best[ref_j][0]:
            best[ref_j] = (value, ref_i)

    links = UnionFind(by_ref.keys())
    for ref, (_, partner) in best.items():
        links.union(ref, partner)
    return _partitioning(by_ref, links, glue_cluster)


def build_attribute_profiles(
    collection: EntityCollection, source: int, min_token_length: int = 2
) -> list[AttributeProfile]:
    """Profile every attribute of *collection*, sorted by name.

    Attributes whose values produce no tokens at all (e.g. only punctuation)
    are still emitted, with an empty token set: they must reach the glue
    cluster rather than silently vanish from the partitioning.
    """
    token_sets: dict[str, set[str]] = {name: set() for name in collection.attribute_names}
    for profile in collection:
        for name, value in profile.iter_pairs():
            token_sets[name].update(tokenize(value, min_token_length))
    return [
        AttributeProfile(source, name, frozenset(tokens))
        for name, tokens in sorted(token_sets.items())
    ]


def string_entropies(
    collection: EntityCollection, source: int, min_token_length: int = 2
) -> dict[AttributeRef, float]:
    """Shannon entropy of every attribute of *collection*, from a
    ``Counter`` of its re-tokenized values."""
    counters: dict[str, Counter[str]] = {}
    for profile in collection:
        for name, value in profile.iter_pairs():
            counter = counters.setdefault(name, Counter())
            counter.update(tokenize(value, min_token_length))
    return {
        (source, name): shannon_entropy(counters.get(name, Counter()).values())
        for name in collection.attribute_names
    }


def string_loose_schema_entropies(
    partitioning: AttributePartitioning,
    collection1: EntityCollection,
    collection2: EntityCollection | None = None,
    min_token_length: int = 2,
) -> AttributePartitioning:
    """``extract_loose_schema_entropies`` over :func:`string_entropies`."""
    entropies = string_entropies(collection1, 0, min_token_length)
    if collection2 is not None:
        entropies.update(string_entropies(collection2, 1, min_token_length))
    return partitioning.with_entropies(aggregate_entropies(partitioning, entropies))
