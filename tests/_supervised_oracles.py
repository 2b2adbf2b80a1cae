"""The per-edge supervised meta-blocking path, kept as the test oracle.

This is what ``repro.supervised`` ran before it read the array graph:
the dict-based ``BlockingGraph``, its five features filled in one
Python loop per edge, rows labelled by ``edge in truth`` one at a time.
``repro.supervised.edge_features`` must equal :func:`oracle_edge_features`
bit for bit, and ``SupervisedMetaBlocking.run`` must retain exactly
:func:`oracle_retained`.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.blocking.base import BlockCollection
from repro.data.dataset import ERDataset
from repro.graph.blocking_graph import BlockingGraph, Edge
from repro.supervised import EDGE_FEATURE_NAMES, LinearSVM, SupervisedMetaBlocking
from repro.utils.rng import make_rng


def oracle_edge_features(graph: BlockingGraph, edges: list[Edge]) -> np.ndarray:
    """Feature matrix of shape ``(len(edges), 5)`` in EDGE_FEATURE_NAMES order."""
    total_blocks = max(1, graph.num_blocks)
    num_nodes = max(1, graph.num_nodes)
    degrees = graph.degrees
    out = np.zeros((len(edges), len(EDGE_FEATURE_NAMES)), dtype=float)
    for row, edge in enumerate(edges):
        i, j = edge
        stats = graph.stats(edge)
        shared = stats.shared_blocks
        blocks_i = graph.node_blocks[i]
        blocks_j = graph.node_blocks[j]
        cf_ibf = (
            shared
            * _safe_log(total_blocks / blocks_i)
            * _safe_log(total_blocks / blocks_j)
        )
        js = shared / (blocks_i + blocks_j - shared)
        out[row, 0] = cf_ibf
        out[row, 1] = stats.arcs_mass
        out[row, 2] = js
        out[row, 3] = degrees[i] / num_nodes
        out[row, 4] = degrees[j] / num_nodes
    return out


def _safe_log(value: float) -> float:
    if value <= 1.0:
        return 0.0
    return math.log10(value)


def oracle_retained(
    meta: SupervisedMetaBlocking, collection: BlockCollection, dataset: ERDataset
) -> list[Edge]:
    """The edges *meta* keeps, lexicographically sorted, by the old loop."""
    graph = BlockingGraph(collection)
    edges = [edge for edge, _ in graph.edges()]
    if not edges:
        return []
    features = oracle_edge_features(graph, edges)

    rng = make_rng(meta.seed)
    truth = dataset.truth_pairs
    positive_rows = [row for row, edge in enumerate(edges) if edge in truth]
    negative_rows = [row for row, edge in enumerate(edges) if edge not in truth]
    if not positive_rows or not negative_rows:
        return edges

    n_pos = max(1, round(meta.training_fraction * len(positive_rows)))
    n_neg = min(len(negative_rows), max(1, round(meta.negative_ratio * n_pos)))
    pos_sample = rng.choice(len(positive_rows), size=n_pos, replace=False)
    neg_sample = rng.choice(len(negative_rows), size=n_neg, replace=False)
    train_rows = [positive_rows[i] for i in pos_sample] + [
        negative_rows[i] for i in neg_sample
    ]
    labels = np.array([1.0] * n_pos + [-1.0] * n_neg, dtype=np.float64)

    svm = LinearSVM(seed=meta.seed)
    svm.fit(features[train_rows], labels)
    return [
        edge
        for edge, prediction in zip(edges, svm.predict(features))
        if prediction > 0
    ]
