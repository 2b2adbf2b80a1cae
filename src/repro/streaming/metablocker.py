"""Query-time meta-blocking: per-node weighting + node-centric pruning.

Where the batch :class:`~repro.graph.metablocking.MetaBlocker` weights and
prunes the *whole* blocking graph, a :class:`StreamingMetaBlocker` answers
``candidates(profile, k)`` by computing edge weights for just the query
node against the live index and applying a node-centric pruning scheme to
that neighbourhood.

Weighting supports CBS, ECBS, JS, ARCS and BLAST's CHI_H (EJS needs the
global degree distribution and is rejected).  A neighbourhood is weighted
by :func:`repro.graph.vectorized.compute_edge_weights`, the kernel the
batch shards run: the views accumulate shared-block masses in block
order, and ``|B_i|``/``|B_j|`` are handed over in canonical ``(i, j)``
endpoint order — so that, over the ``exact`` view of a frozen index, a
query reproduces the batch python reference's edge weights *bit for bit*
and the retained neighbourhood equals the batch pruning output (the
property suite in ``tests/property/test_prop_streaming.py`` enforces
this).

Pruning supports the node-centric schemes: BLAST's max-based rule, WNP and
CNP (redefined and reciprocal).  On views that can answer neighbor-side
thresholds (``exact``), the full two-endpoint rules run, with per-node
threshold summaries cached per index version; on one-sided views
(``fast``) only the query node's local threshold applies.  The
edge-centric WEP/CEP have no per-node formulation and are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightNodePruning,
)
from repro.graph.vectorized import (
    _clears as _clears_arr,
    _sequential_sum,
    compute_edge_weights,
)
from repro.graph.weights import WeightingScheme
from repro.streaming.index import IncrementalBlockIndex
from repro.streaming.views import NeighborStats

__all__ = ["Candidate", "StreamingMetaBlocker"]

#: Pruning schemes with a per-node (node-centric) formulation.
_NODE_CENTRIC = (BlastPruning, WeightNodePruning, CardinalityNodePruning)


@dataclass(frozen=True)
class Candidate:
    """One retained comparison partner of a query profile."""

    profile_id: str
    source: int
    weight: float


@dataclass
class _NodeSummary:
    """Cached per-node threshold statistics (one index version)."""

    max_weight: float
    mean_weight: float
    #: Sort key ``(-w, i, j)`` of the node's (k+1)-th best incident edge,
    #: or ``None`` when the node has at most k incident edges (CNP keeps
    #: an edge iff its key sorts strictly before this cutoff).
    cnp_cutoff: tuple[float, int, int] | None


class StreamingMetaBlocker:
    """Per-node meta-blocking over an :class:`IncrementalBlockIndex`.

    Parameters
    ----------
    index:
        The live block index queries run against.
    weighting:
        A :class:`~repro.graph.weights.WeightingScheme` or its string name.
        ``EJS`` and custom weighting callables are rejected — both need
        whole-graph statistics a per-node query cannot see.
    pruning:
        A node-centric pruning scheme (BLAST's max-based rule by default,
        or WNP / CNP in either variant).  WEP/CEP raise.
    entropy_boost:
        Multiply traditional weights by ``h(B_uv)`` (the ``wsh`` ablation).
    consistency:
        Name of the query view, resolved through
        :data:`repro.core.registry.STREAM_VIEWS` (``"exact"`` or
        ``"fast"`` built in).
    """

    def __init__(
        self,
        index: IncrementalBlockIndex,
        *,
        weighting: WeightingScheme | str = WeightingScheme.CHI_H,
        pruning: PruningScheme | None = None,
        entropy_boost: bool = False,
        consistency: str = "exact",
    ) -> None:
        if callable(weighting) and not isinstance(weighting, (str, WeightingScheme)):
            raise TypeError(
                "streaming queries need a named WeightingScheme; custom "
                "weighting callables see the whole graph and cannot be "
                "evaluated per node"
            )
        weighting = WeightingScheme(weighting)
        if weighting is WeightingScheme.EJS:
            raise ValueError(
                "EJS weighting needs the global node-degree distribution "
                "and is not available at query time; use cbs/ecbs/js/arcs/chi_h"
            )
        pruning = pruning if pruning is not None else BlastPruning()
        if type(pruning) not in _NODE_CENTRIC:
            raise ValueError(
                f"{type(pruning).__name__} is not node-centric; streaming "
                "pruning must be one of BlastPruning, WeightNodePruning, "
                "CardinalityNodePruning"
            )
        self.index = index
        self.weighting = weighting
        self.pruning = pruning
        self.entropy_boost = entropy_boost
        self.consistency = consistency
        self._view = None
        self._view_version: int | None = None
        self._summaries: dict[int, _NodeSummary] = {}
        self._cnp_k_value: tuple[object, int] | None = None

    # -- view management -----------------------------------------------------

    def view(self):
        """The current query view, rebuilt lazily after index mutations."""
        if self._view is None or self._view_version != self.index.version:
            from repro.core.registry import STREAM_VIEWS

            self._view = STREAM_VIEWS.get(self.consistency)(self.index)
            self._view_version = self.index.version
            self._summaries.clear()
        return self._view

    # -- public queries ------------------------------------------------------

    def neighborhood(self, ref, source: int = 0) -> list[Candidate]:
        """All co-occurring profiles of *ref* with their edge weights.

        *ref* is a profile id or an (already upserted)
        :class:`~repro.data.profile.EntityProfile`; the result is sorted by
        descending weight (ties by id) and is *unpruned*.
        """
        view, canonical = self._resolve(ref, source)
        stats = view.gather(canonical)
        weights = self._weights(stats, canonical, view)
        return self._to_candidates(
            stats.neighbors, weights, np.ones(weights.size, dtype=bool), view
        )

    def candidates(
        self, ref, k: int | None = None, source: int = 0
    ) -> list[Candidate]:
        """The retained comparison partners of *ref* after pruning.

        ``k`` optionally caps the result to the top-k by weight (applied
        after pruning; it does not alter the pruning decision itself).
        """
        if k is not None and k < 1:
            raise ValueError(f"k must be positive, got {k}")
        view, canonical = self._resolve(ref, source)
        stats = view.gather(canonical)
        weights = self._weights(stats, canonical, view)
        mask = self._retained_mask(canonical, stats.neighbors, weights, view)
        return self._to_candidates(stats.neighbors, weights, mask, view, k)

    # -- weighting kernels ---------------------------------------------------

    def _resolve(self, ref, source: int):
        profile_id = getattr(ref, "profile_id", ref)
        node = self.index.node_of(profile_id, source)
        view = self.view()
        return view, view.canonical_of(node)

    def _to_candidates(
        self,
        neighbors: np.ndarray,
        weights: np.ndarray,
        mask: np.ndarray,
        view,
        k: int | None = None,
    ) -> list[Candidate]:
        """The kept neighbours ranked by descending weight (ties by id),
        built for the first *k* only."""
        kept = neighbors[mask]
        kept_weights = weights[mask]
        order = np.lexsort((kept, -kept_weights))[:k]
        nodes = view.nodes_of(kept[order])
        index = self.index
        return [
            Candidate(
                profile_id=index.profile_of(node).profile_id,
                source=index.source_of(node),
                weight=weight,
            )
            for node, weight in zip(nodes, kept_weights[order].tolist())
        ]

    def _weights(self, stats: NeighborStats, q: int, view) -> np.ndarray:
        blocks_q = view.node_blocks_scalar(q)
        blocks_n = view.node_blocks(stats.neighbors)
        # Canonical endpoint order (i < j), as every batch edge is stored,
        # so the kernel's i-side factors come first whether the query node
        # is the smaller or the larger endpoint.
        n_is_lower = stats.neighbors < q
        return compute_edge_weights(
            self.weighting,
            shared=stats.shared,
            blocks_i=np.where(n_is_lower, blocks_n, blocks_q),
            blocks_j=np.where(n_is_lower, blocks_q, blocks_n),
            num_blocks=view.total_blocks,
            arcs_mass=stats.arcs_mass,
            entropy_mass=stats.entropy_mass,
            entropy_boost=self.entropy_boost,
        )

    # -- node-centric pruning ------------------------------------------------

    def _summary(self, canonical: int, view) -> _NodeSummary:
        """Threshold statistics of one node, cached per index version."""
        summary = self._summaries.get(canonical)
        if summary is None:
            stats = view.gather(canonical)
            weights = self._weights(stats, canonical, view)
            summary = self._summarize(canonical, stats.neighbors, weights)
            self._summaries[canonical] = summary
        return summary

    def _summarize(
        self, canonical: int, neighbors: np.ndarray, weights: np.ndarray
    ) -> _NodeSummary:
        if weights.size == 0:
            return _NodeSummary(0.0, 0.0, None)
        # Neighbors arrive ascending, so the sequential sum reproduces the
        # batch per-node accumulation order (edges in lexicographic order).
        mean = _sequential_sum(weights) / weights.size
        maximum = max(0.0, float(weights.max()))
        cutoff = None
        k = self._cnp_k(None)
        if k is not None and weights.size > k:
            ranked = sorted(
                self._edge_sort_keys(canonical, neighbors, weights)
            )
            cutoff = ranked[k]
        return _NodeSummary(maximum, mean, cutoff)

    @staticmethod
    def _edge_sort_keys(
        canonical: int, neighbors: np.ndarray, weights: np.ndarray
    ) -> list[tuple[float, int, int]]:
        """Batch CNP ranking keys ``(-w, i, j)`` for one node's edges."""
        return [
            (-w, min(canonical, n), max(canonical, n))
            for n, w in zip(neighbors.tolist(), weights.tolist())
        ]

    def _cnp_k(self, view) -> int | None:
        """The CNP per-node k, or ``None`` when pruning is not CNP.

        Lazily resolved from the view-global block statistics exactly as
        the batch default does (``ceil(sum_i |B_i| / |V|)``); cached per
        view build via :attr:`_cnp_k_cache`.
        """
        if not isinstance(self.pruning, CardinalityNodePruning):
            return None
        if self.pruning.k is not None:
            return self.pruning.k
        cached = self._cnp_k_value
        if cached is not None and cached[0] is self._view:
            return cached[1]
        view = view if view is not None else self.view()
        k = max(
            1, math.ceil(view.total_assignments / max(1, view.num_nodes))
        )
        self._cnp_k_value = (self._view, k)
        return k

    def _retained_mask(
        self,
        q: int,
        neighbors: np.ndarray,
        weights: np.ndarray,
        view,
    ) -> np.ndarray:
        if weights.size == 0:
            return np.zeros(0, dtype=bool)
        pruning = self.pruning
        two_hop = view.supports_neighbor_thresholds

        if isinstance(pruning, BlastPruning):
            theta_q = max(0.0, float(weights.max())) / pruning.c
            if two_hop:
                theta_n = np.fromiter(
                    (
                        self._summary(n, view).max_weight / pruning.c
                        for n in neighbors.tolist()
                    ),
                    dtype=np.float64,
                    count=neighbors.size,
                )
            else:  # one threshold for every edge; the scalar broadcasts
                theta_n = theta_q
            thresholds = (theta_q + theta_n) / pruning.d
            return (weights > 0.0) & _clears_arr(weights, thresholds)

        if isinstance(pruning, WeightNodePruning):
            theta_q = _sequential_sum(weights) / weights.size
            above_q = _clears_arr(weights, theta_q)
            if not two_hop:
                return above_q
            theta_n = np.fromiter(
                (
                    self._summary(n, view).mean_weight
                    for n in neighbors.tolist()
                ),
                dtype=np.float64,
                count=neighbors.size,
            )
            above_n = _clears_arr(weights, theta_n)
            return (above_q & above_n) if pruning.reciprocal else (above_q | above_n)

        # CardinalityNodePruning
        k = self._cnp_k(view)
        keys = self._edge_sort_keys(q, neighbors, weights)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        in_top_q = np.zeros(neighbors.size, dtype=bool)
        in_top_q[order[:k]] = True
        if not two_hop:
            return in_top_q
        in_top_n = np.zeros(neighbors.size, dtype=bool)
        for position, neighbor in enumerate(neighbors.tolist()):
            cutoff = self._summary(neighbor, view).cnp_cutoff
            in_top_n[position] = cutoff is None or keys[position] < cutoff
        return (in_top_q & in_top_n) if pruning.reciprocal else (in_top_q | in_top_n)

    def __repr__(self) -> str:
        return (
            f"StreamingMetaBlocker(weighting={self.weighting.value}, "
            f"pruning={type(self.pruning).__name__}, "
            f"consistency={self.consistency!r})"
        )
