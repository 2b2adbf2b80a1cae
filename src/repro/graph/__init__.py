"""Graph-based meta-blocking: blocking graph, weighting, pruning."""

from repro.graph.blocking_graph import BlockingGraph, EdgeStats
from repro.graph.contingency import ContingencyTable, chi_squared
from repro.graph.entity_index import EntityIndex
from repro.graph.metablocking import (
    MetaBlocker,
    blocks_from_edges,
    reference_metablocking,
)
from repro.graph.parallel import parallel_metablocking
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.sharding import ShardableIndex, ShardEdges, plan_shards
from repro.graph.vectorized import ArrayBlockingGraph, vectorized_metablocking
from repro.graph.weights import WeightingScheme, compute_weights

__all__ = [
    "BlockingGraph",
    "EdgeStats",
    "EntityIndex",
    "ArrayBlockingGraph",
    "ShardableIndex",
    "ShardEdges",
    "plan_shards",
    "reference_metablocking",
    "vectorized_metablocking",
    "parallel_metablocking",
    "ContingencyTable",
    "chi_squared",
    "WeightingScheme",
    "compute_weights",
    "PruningScheme",
    "WeightEdgePruning",
    "CardinalityEdgePruning",
    "WeightNodePruning",
    "CardinalityNodePruning",
    "BlastPruning",
    "MetaBlocker",
    "blocks_from_edges",
]
