"""Attribute Clustering (AC) [Papadakis et al., TKDE 2013].

The baseline attribute-match induction technique LMI is compared against in
Section 4.3.  AC links every attribute to its single most similar attribute
from the other source (when the similarity is positive) and takes connected
components: each member of a cluster is guaranteed one highly similar
companion, but chains of best-match links can pull together attributes that
are not all pairwise similar — the "similar to other similar attributes"
behaviour the paper contrasts with LMI's cohesive clusters.
"""

from __future__ import annotations

import numpy as np

from repro.schema.attribute_graph import AttributeMatchInduction


class AttributeClustering(AttributeMatchInduction):
    """AC: best-match linking plus connected components.

    Parameters
    ----------
    glue_cluster:
        Whether singletons are gathered in the glue cluster.
    """

    def __init__(self, glue_cluster: bool = True) -> None:
        self.glue_cluster = glue_cluster

    def _links(
        self, src: np.ndarray, dst: np.ndarray, sim: np.ndarray, maxima: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every attribute with its best partner.

        Ties go to the smallest id, i.e. the lexicographically smallest
        ref, for determinism.
        """
        unlinked = maxima.size
        best = np.full(maxima.size, unlinked, dtype=np.int64)
        at_src, at_dst = sim == maxima[src], sim == maxima[dst]
        np.minimum.at(best, src[at_src], dst[at_src])
        np.minimum.at(best, dst[at_dst], src[at_dst])
        linked = np.flatnonzero(best < unlinked)
        return linked, best[linked]
