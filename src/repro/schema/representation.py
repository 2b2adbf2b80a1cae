"""Weighted attribute representation models (Section 2.1).

The paper's attribute representation slot admits weighting functions other
than binary presence — notably TF-IDF, paired with cosine similarity
(Jaccard is incompatible with TF-IDF weights, as Section 2.1 notes).  This
module provides that alternative representation for attribute-match
induction.

Usage::

    model = TfIdfAttributeModel(collection1, collection2)
    partitioning = tfidf_attribute_match_induction(model, method="lmi")
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.data.collection import EntityCollection
from repro.schema.partition import AttributePartitioning, AttributeRef


class TfIdfAttributeModel:
    """Sparse TF-IDF vectors for every attribute of one or two collections.

    Each attribute is a "document" whose terms are the tokens of its
    values (with multiplicity); IDF is computed over the attribute corpus
    of both sources together, so shared rare tokens bind attributes across
    sources exactly as in the binary model.
    """

    def __init__(
        self,
        collection1: EntityCollection,
        collection2: EntityCollection | None = None,
        min_token_length: int = 2,
    ) -> None:
        from repro.utils.tokenize import tokenize

        corpora: dict[AttributeRef, Counter[str]] = {}
        for source, collection in self._sources(collection1, collection2):
            for name in collection.attribute_names:
                corpora[(source, name)] = Counter()
            for profile in collection:
                for name, value in profile.iter_pairs():
                    corpora[(source, name)].update(tokenize(value, min_token_length))

        num_documents = len(corpora)
        document_frequency: Counter[str] = Counter()
        for counter in corpora.values():
            document_frequency.update(set(counter))

        self._vectors: dict[AttributeRef, dict[str, float]] = {}
        self._norms: dict[AttributeRef, float] = {}
        for ref, counter in corpora.items():
            total = sum(counter.values())
            vector: dict[str, float] = {}
            for token, count in counter.items():
                tf = count / total
                idf = (
                    math.log((1 + num_documents) / (1 + document_frequency[token]))
                    + 1.0
                )
                vector[token] = tf * idf
            self._vectors[ref] = vector
            self._norms[ref] = math.sqrt(sum(w * w for w in vector.values()))

    @staticmethod
    def _sources(
        collection1: EntityCollection, collection2: EntityCollection | None
    ) -> Iterable[tuple[int, EntityCollection]]:
        yield 0, collection1
        if collection2 is not None:
            yield 1, collection2

    @property
    def refs(self) -> list[AttributeRef]:
        """All attribute refs covered by the model, sorted."""
        return sorted(self._vectors)

    def vector(self, ref: AttributeRef) -> dict[str, float]:
        """The sparse TF-IDF vector of attribute *ref*."""
        return self._vectors[ref]

    def cosine(self, ref_a: AttributeRef, ref_b: AttributeRef) -> float:
        """Cosine similarity of two attributes' TF-IDF vectors."""
        va, vb = self._vectors.get(ref_a), self._vectors.get(ref_b)
        if not va or not vb:
            return 0.0
        if len(vb) < len(va):
            va, vb = vb, va
        dot = sum(weight * vb.get(token, 0.0) for token, weight in va.items())
        if dot == 0.0:
            return 0.0
        norm_a, norm_b = self._norms[ref_a], self._norms[ref_b]
        if norm_a == 0.0 or norm_b == 0.0:
            return 0.0
        return dot / (norm_a * norm_b)


def tfidf_attribute_match_induction(
    model: TfIdfAttributeModel,
    method: str = "lmi",
    alpha: float = 0.9,
    glue_cluster: bool = True,
) -> AttributePartitioning:
    """Attribute-match induction over the TF-IDF/cosine representation.

    Shares the LMI / Attribute Clustering decision with the binary-presence
    variants and swaps only the scores: the term-sharing attribute pairs —
    the only ones whose cosine is non-zero, every tf-idf weight being
    positive — come from the same attribute x token index, are scored with
    :meth:`TfIdfAttributeModel.cosine`, and candidate generation,
    mutuality and connected components run on those similarities.
    """
    from repro.schema.attribute_clustering import AttributeClustering
    from repro.schema.attribute_graph import AttributeGraph
    from repro.schema.lmi import LooseAttributeMatchInduction

    if method not in ("lmi", "ac"):
        raise ValueError(f"method must be 'lmi' or 'ac', got {method!r}")
    graph = AttributeGraph.from_token_sets(
        {ref: model.vector(ref) for ref in model.refs},
        clean_clean=any(source == 1 for source, _ in model.refs),
    )
    refs = graph.refs
    sim = np.asarray(
        [
            model.cosine(refs[i], refs[j])
            for i, j in zip(graph.src.tolist(), graph.dst.tolist())
        ],
        dtype=np.float64,
    )
    if method == "lmi":
        return LooseAttributeMatchInduction(alpha, glue_cluster).decide(graph, sim)
    return AttributeClustering(glue_cluster).decide(graph, sim)
