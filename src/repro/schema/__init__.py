"""Loose schema information extraction (the paper's Phase 1)."""

from repro.schema.attribute_clustering import AttributeClustering
from repro.schema.attribute_graph import AttributeGraph
from repro.schema.attribute_profile import AttributeProfile
from repro.schema.entropy import (
    aggregate_entropies,
    attribute_entropies,
    shannon_entropy,
)
from repro.schema.lmi import LooseAttributeMatchInduction
from repro.schema.partition import GLUE_CLUSTER_ID, AttributePartitioning
from repro.schema.representation import (
    TfIdfAttributeModel,
    tfidf_attribute_match_induction,
)
from repro.schema.similarity import cosine, dice, jaccard

__all__ = [
    "TfIdfAttributeModel",
    "tfidf_attribute_match_induction",
    "AttributeGraph",
    "AttributeProfile",
    "LooseAttributeMatchInduction",
    "AttributeClustering",
    "AttributePartitioning",
    "GLUE_CLUSTER_ID",
    "shannon_entropy",
    "attribute_entropies",
    "aggregate_entropies",
    "jaccard",
    "dice",
    "cosine",
]
