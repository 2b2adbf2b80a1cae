"""Attribute-match induction as meta-blocking over attributes.

Algorithm 1 compares attributes by the tokens they share, which is the
comparison enumeration meta-blocking runs over an entity index: attributes
are the profiles, tokens the blocks, Jaccard is the ``JS`` weight
``shared / (|a| + |b| - shared)``.  :class:`AttributeGraph` lowers the
attributes into the CSR layout of ``repro.graph`` and takes the
token-sharing pairs from its shard kernel, so only pairs with a non-zero
similarity are ever scored; :class:`AttributeMatchInduction` turns the
links an induction technique keeps into a partitioning.

The ``repro.graph`` kernels are imported inside the functions that call
them: ``repro.graph`` imports ``repro.blocking``, whose canopy blocker
imports ``repro.schema.similarity`` — importing them here at module level
closes that cycle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.schema.attribute_profile import AttributeProfile
from repro.schema.partition import AttributePartitioning, AttributeRef
from repro.utils.arrays import sorted_contains, sorted_unique
from repro.utils.unionfind import UnionFind

if TYPE_CHECKING:  # pragma: no cover
    from repro.data.corpus import InternedCorpus

CandidatePairs = Iterable[tuple[AttributeRef, AttributeRef]]


@dataclass(frozen=True)
class AttributeGraph:
    """The attribute pairs sharing at least one token, as edge arrays.

    Attributes
    ----------
    refs:
        Every attribute, sorted; an attribute's id is its position, so
        source 0 precedes source 1 and id order is ref order.
    src, dst:
        ``int64`` edges with ``src < dst``, sorted lexicographically (the
        order Algorithm 1 iterates its pairs in); cross-source pairs only
        for a clean-clean task.
    shared:
        Tokens the two attributes of each edge share.
    sizes:
        ``|tokens|`` per attribute id (zero for a token-less attribute).
    """

    refs: list[AttributeRef]
    src: np.ndarray
    dst: np.ndarray
    shared: np.ndarray
    sizes: np.ndarray

    @classmethod
    def build(
        cls,
        refs: list[AttributeRef],
        rows: np.ndarray,
        tokens: np.ndarray,
        clean_clean: bool,
    ) -> "AttributeGraph":
        """Index ``(attribute id, token code)`` memberships, one block a token.

        One-sided and single-member tokens stay as zero-comparison blocks:
        they pair nothing but still count toward ``|a|``.  Any other block
        code works the same way: the LSH step passes band buckets.
        """
        from repro.blocking._interned import group_assignments
        from repro.graph.sharding import ShardableIndex, default_plan
        from repro.graph.vectorized import Collector, SharedState, run_in_process

        _, starts, sizes, members = group_assignments(rows, tokens)
        block_ptr = np.append(starts, members.size)
        if clean_clean and starts.size:
            first_right = bisect_left(refs, (1,))
            left = np.add.reduceat((members < first_right).astype(np.int64), starts)
            comparisons = left * (sizes - left)
        else:
            left = sizes
            comparisons = sizes * (sizes - 1) // 2
        index = ShardableIndex(
            is_clean_clean=clean_clean,
            block_ptr=block_ptr,
            block_split=block_ptr[:-1] + left,
            entity_ids=members,
            block_comparisons=comparisons,
            num_ids=len(refs),
        )
        collector = Collector()
        run_in_process(SharedState(index, None, False), default_plan(index), collector)
        edges = collector.merge()[0]
        return cls(
            refs=refs,
            src=edges.src,
            dst=edges.dst,
            shared=edges.shared,
            sizes=np.bincount(members, minlength=len(refs)),
        )

    @classmethod
    def from_token_sets(
        cls, token_sets: Mapping[AttributeRef, Iterable[str]], clean_clean: bool
    ) -> "AttributeGraph":
        """Intern the token strings of ``ref -> tokens`` and index them."""
        refs = sorted(token_sets)
        codes: dict[str, int] = {}
        rows: list[int] = []
        tokens: list[int] = []
        for row, ref in enumerate(refs):
            if clean_clean and ref[0] not in (0, 1):
                continue  # Algorithm 1 scores A1 x A2 only
            before = len(tokens)
            tokens.extend(codes.setdefault(t, len(codes)) for t in token_sets[ref])
            rows.extend([row] * (len(tokens) - before))
        return cls.build(
            refs,
            np.asarray(rows, dtype=np.int64),
            np.asarray(tokens, dtype=np.int64),
            clean_clean,
        )

    @classmethod
    def from_corpus(
        cls, corpus: "InternedCorpus", min_token_length: int
    ) -> "AttributeGraph":
        """Index the corpus' ``(attribute, token)`` id pairs directly."""
        return cls.build(
            *corpus_memberships(corpus, min_token_length), corpus.is_clean_clean
        )

    def restricted_to(self, pairs: np.ndarray) -> "AttributeGraph":
        """The graph with only the edges among the row *pairs* (LSH step).

        *pairs* is an ``(E, 2)`` array of attribute ids in either
        orientation, repeats allowed; a pair the graph does not link is
        ignored.  An edge stays if its packed pair is among the packed
        candidates, one binary search each.
        """
        from repro.graph.entity_index import pack_pairs

        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        keys = sorted_unique(pack_pairs(pairs[:, 0], pairs[:, 1]))
        keep = sorted_contains(keys, pack_pairs(self.src, self.dst))
        return replace(
            self, src=self.src[keep], dst=self.dst[keep], shared=self.shared[keep]
        )

    def jaccard(self) -> np.ndarray:
        """Jaccard similarity per edge.

        An int64 true-divide: the same correctly rounded float64 as the
        set-based ``len(a & b) / len(a | b)``.
        """
        sizes = self.sizes
        return self.shared / (sizes[self.src] + sizes[self.dst] - self.shared)


def corpus_memberships(
    corpus: "InternedCorpus", min_token_length: int
) -> tuple[list[AttributeRef], np.ndarray, np.ndarray]:
    """``(refs, rows, tokens)``: every attribute of *corpus* in ref order,
    and one ``(row, token id)`` membership per distinct token of a row.

    No token string and no :class:`AttributeProfile` is materialized;
    attributes whose values produce no token keep a row and no membership,
    so they reach the glue cluster.
    """
    attributes = corpus.attributes
    order = sorted(range(len(attributes)), key=attributes.__getitem__)
    row_of = np.empty(len(order), dtype=np.int64)
    row_of[order] = np.arange(len(order), dtype=np.int64)
    counts = [
        corpus.attribute_term_counts(source, min_token_length)
        for source in ((0, 1) if corpus.is_clean_clean else (0,))
    ]
    return (
        [attributes[aid] for aid in order],
        row_of[np.concatenate([attrs for attrs, _, _ in counts])],
        np.concatenate([toks for _, toks, _ in counts]),
    )


class AttributeMatchInduction:
    """What LMI and Attribute Clustering share: graph in, partitioning out.

    A technique is its :meth:`_links` rule over scored edge arrays and
    their per-attribute maxima.
    :meth:`decide` is the extension point for other representations: score
    ``graph.src`` / ``graph.dst`` any way (the TF-IDF model hands in
    cosines) and pass the similarities in.
    """

    glue_cluster: bool = True

    def induce(
        self,
        profiles1: Iterable[AttributeProfile],
        profiles2: Iterable[AttributeProfile] | None = None,
        candidate_pairs: CandidatePairs | None = None,
    ) -> AttributePartitioning:
        """Partition the attribute name space by Jaccard over token sets.

        Parameters
        ----------
        profiles1, profiles2:
            Attribute profiles of the two sources; leave *profiles2* as
            ``None`` for dirty ER, where similar attributes are sought within
            the single source.
        candidate_pairs:
            If given (by the LSH pre-processing step), only these pairs are
            scored, and each attribute's maximum is taken over them.  In a
            clean-clean call only cross-source pairs count: a candidate
            naming two attributes of one source is ignored, as Algorithm 1
            scores A1 x A2 only.

        Returns
        -------
        AttributePartitioning
            Clusters of size >= 2, numbered by their smallest member ref,
            plus the glue cluster when enabled.
        """
        token_sets: dict[AttributeRef, frozenset[str]] = {}
        for profile in profiles1:
            token_sets[profile.ref] = profile.tokens
        if profiles2 is not None:
            for profile in profiles2:
                if profile.ref in token_sets:
                    raise ValueError(f"duplicate attribute ref {profile.ref!r}")
                token_sets[profile.ref] = profile.tokens
        graph = AttributeGraph.from_token_sets(
            token_sets, clean_clean=profiles2 is not None
        )
        if candidate_pairs is not None:
            row_of = {ref: row for row, ref in enumerate(graph.refs)}
            pairs = [
                (row_of[a], row_of[b])
                for a, b in candidate_pairs
                if a in row_of and b in row_of
            ]
            graph = graph.restricted_to(np.asarray(pairs, dtype=np.int64))
        return self.decide(graph, graph.jaccard())

    def decide(self, graph: AttributeGraph, sim: np.ndarray) -> AttributePartitioning:
        """Cluster *graph*'s attributes given its edges' (positive) *sim*."""
        from repro.graph.vectorized import node_maxima

        refs = graph.refs
        src, dst = graph.src, graph.dst
        linked = self._links(src, dst, sim, node_maxima(src, dst, sim, len(refs)))
        links = UnionFind()
        for a, b in zip(linked[0].tolist(), linked[1].tolist()):
            links.union(a, b)
        clusters = sorted(sorted(members) for members in links.components())
        clustered = {row for members in clusters for row in members}
        return AttributePartitioning(
            clusters=[[refs[row] for row in members] for members in clusters],
            glue=[ref for row, ref in enumerate(refs) if row not in clustered]
            if self.glue_cluster
            else None,
        )

    def _links(
        self, src: np.ndarray, dst: np.ndarray, sim: np.ndarray, maxima: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint ids of the links whose components are the clusters.

        *maxima* is each attribute's largest incident *sim*, dense by id.
        """
        raise NotImplementedError
