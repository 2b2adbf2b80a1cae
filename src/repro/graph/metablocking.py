"""The meta-blocking driver: graph -> weights -> pruning -> new blocks.

Meta-blocking (Definition 2) restructures a block collection into one with
far higher PQ and nearly identical PC.  After pruning, every retained edge
becomes a block of exactly one comparison, so the output collection is
redundancy-free by construction.

Three result-equivalent execution backends exist, addressable by name
through :data:`repro.core.registry.BACKENDS`:

* ``"python"`` — :func:`reference_metablocking`, the dict-based reference
  path over :class:`~repro.graph.blocking_graph.BlockingGraph`;
* ``"vectorized"`` (the default) —
  :func:`repro.graph.vectorized.vectorized_metablocking`, the array-backed
  hot path, built one entity-id shard at a time in this process; it
  delegates back to the reference for components it cannot vectorize, so
  any registered backend accepts any weighting/pruning;
* ``"parallel"`` —
  :func:`repro.graph.parallel.parallel_metablocking`, the same driver
  with worker processes running the shards (bit-identical merge; same
  reference fallback).

A backend is a callable ``(collection, *, weighting, pruning,
entropy_boost, key_entropy) -> np.ndarray`` returning the retained edges
as one ``(E, 2)`` ``int64`` array of ``(i, j)`` rows, ``i < j``, sorted
lexicographically: the one edge format from backend to PC/PQ.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import BlockingGraph, KeyEntropyFn
from repro.graph.entity_index import EntityIndex
from repro.graph.pruning import BlastPruning, PruningScheme
from repro.graph.weights import WeightingScheme, compute_weights


class _EdgeKeys(Sequence[str]):
    """The ``"e:i-j"`` keys of one-comparison blocks, formatted on read."""

    def __init__(self, edges: np.ndarray) -> None:
        self._edges = edges

    def __len__(self) -> int:
        return len(self._edges)

    def __getitem__(self, position: int) -> str:  # type: ignore[override]
        i, j = self._edges[position].tolist()
        return f"e:{i}-{j}"


def blocks_from_edges(
    edges, is_clean_clean: bool, *, presorted: bool = False
) -> BlockCollection:
    """One single-comparison block per retained ``(i, j)`` edge, ``i < j``.

    *edges* is an ``(E, 2)`` array (or a list of tuples).  Pass
    ``presorted=True`` when it is already lexicographic (backend outputs
    are) to skip the re-sort.  The collection is index-born; its keys
    (``"e:i-j"``, for debuggability only) are formatted when read.
    """
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not presorted:
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    sizes = np.full(len(pairs), 2, dtype=np.int64)
    return BlockCollection.from_index(
        EntityIndex.from_arrays(
            is_clean_clean,
            _EdgeKeys(pairs),
            sizes,
            sizes // 2 if is_clean_clean else sizes,
            pairs.reshape(-1),
        )
    )


def reference_metablocking(
    collection: BlockCollection,
    *,
    weighting=WeightingScheme.CHI_H,
    pruning: PruningScheme,
    entropy_boost: bool = False,
    key_entropy: KeyEntropyFn | None = None,
) -> np.ndarray:
    """The ``python`` backend: the pure-Python oracle path.

    *weighting* may be a :class:`WeightingScheme` (or its string name) or
    any callable ``graph -> {edge: weight}``.  The sorted edge list
    becomes the ``(E, 2)`` backend array here, at its boundary.
    """
    graph = BlockingGraph(collection, key_entropy=key_entropy)
    if callable(weighting) and not isinstance(weighting, WeightingScheme):
        weights = weighting(graph)
    else:
        weights = compute_weights(
            graph, scheme=weighting, entropy_boost=entropy_boost
        )
    retained = sorted(pruning.prune(graph, weights))
    return np.asarray(retained, dtype=np.int64).reshape(-1, 2)


def get_backend(name: str):
    """Resolve a backend name through :data:`repro.core.registry.BACKENDS`."""
    from repro.core.registry import BACKENDS

    return BACKENDS.get(name)


@dataclass
class MetaBlocker:
    """Configurable graph-based meta-blocking.

    Parameters
    ----------
    weighting:
        Edge weighting scheme (BLAST's ``CHI_H`` by default) or a custom
        callable ``graph -> {edge: weight}``.
    pruning:
        Pruning scheme (BLAST's max-based WNP by default).
    entropy_boost:
        Multiply traditional weights by ``h(B_uv)`` (the ``wsh`` ablation).
    key_entropy:
        Blocking-key -> cluster-entropy map; leave ``None`` for
        entropy-agnostic weighting (every key counts 1.0).
    backend:
        Execution backend: ``"vectorized"`` (array-backed, the default),
        ``"parallel"`` (sharded across worker processes) or ``"python"``
        (the reference oracle) — or any name registered via
        ``repro.core.registry.register_backend``.  All built-ins retain
        the identical edge set.
    backend_options:
        Extra keyword arguments forwarded to the backend callable — e.g.
        ``{"workers": 4, "shard_size": 500_000}`` for the ``parallel``
        backend.  Empty for the built-in serial backends.

    Example
    -------
    >>> from repro.graph import MetaBlocker, WeightingScheme
    >>> from repro.graph.pruning import WeightNodePruning
    >>> mb = MetaBlocker(weighting=WeightingScheme.JS,
    ...                  pruning=WeightNodePruning(reciprocal=True))
    """

    weighting: WeightingScheme = WeightingScheme.CHI_H
    pruning: PruningScheme = field(default_factory=BlastPruning)
    entropy_boost: bool = False
    key_entropy: KeyEntropyFn | None = None
    backend: str = "vectorized"
    backend_options: dict = field(default_factory=dict)

    def retained_edges(self, collection: BlockCollection) -> np.ndarray:
        """The pruned edges of *collection*: a sorted ``(E, 2)`` array."""
        return get_backend(self.backend)(
            collection,
            weighting=self.weighting,
            pruning=self.pruning,
            entropy_boost=self.entropy_boost,
            key_entropy=self.key_entropy,
            **self.backend_options,
        )

    def run(self, collection: BlockCollection) -> BlockCollection:
        """Restructure *collection*; returns the new (pair) block collection."""
        return blocks_from_edges(
            self.retained_edges(collection),
            collection.is_clean_clean,
            presorted=True,
        )
