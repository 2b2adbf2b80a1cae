"""Schema-agnostic edge features for supervised meta-blocking.

[Papadakis et al., PVLDB 2014] casts edge retention as binary classification
over a small vector of schema-agnostic features per edge:

* ``CF-IBF`` — co-occurrence frequency scaled by inverse block frequency of
  both endpoints (the ECBS quantity);
* ``RACCB`` — reciprocal aggregate cardinality of common blocks (the ARCS
  quantity: comparisons in small shared blocks are stronger evidence);
* ``JS``   — Jaccard coefficient of the endpoints' block sets;
* ``ND_u``, ``ND_v`` — normalized node degrees of the two endpoints.

Every column is a quantity the array graph already holds or weighs, bit
for bit as the reference graph's per-edge arithmetic.
"""

from __future__ import annotations

import numpy as np

from repro.graph.vectorized import ArrayBlockingGraph
from repro.graph.weights import WeightingScheme

EDGE_FEATURE_NAMES = ("cf_ibf", "raccb", "js", "nd_u", "nd_v")


def edge_features(graph: ArrayBlockingGraph) -> np.ndarray:
    """Feature matrix of shape ``(graph.num_edges, 5)`` in EDGE_FEATURE_NAMES
    order, one row per edge in the graph's lexicographic order."""
    num_nodes = max(1, graph.num_nodes)
    degrees = graph.degrees
    return np.column_stack(
        (
            graph.weights(WeightingScheme.ECBS),
            graph.arcs_mass,
            graph.weights(WeightingScheme.JS),
            degrees[graph.src] / num_nodes,
            degrees[graph.dst] / num_nodes,
        )
    )
