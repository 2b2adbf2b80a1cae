"""Loose attribute-Match Induction — Algorithm 1 of the paper.

LMI pairs up "nearly most similar" attributes across two sources and takes
the connected components of the *mutual* candidate edges as clusters:

1. compute the similarity of every attribute pair sharing a token — every
   other pair scores zero — (or only of the LSH candidate pairs among them
   when the optional pre-processing step is enabled), tracking each
   attribute's maximum similarity;
2. mark ``a_j`` as a candidate of ``a_i`` when ``sim(a_i, a_j) >= alpha *
   max_i`` (and symmetrically);
3. keep the edge ``<a_i, a_j>`` only if each is a candidate of the other;
4. connected components with more than one member become clusters, and the
   remaining singletons are gathered by the optional glue cluster.

The mutuality requirement is what makes LMI produce *cohesive* clusters,
versus Attribute Clustering's best-match chaining (Section 4.3).
"""

from __future__ import annotations

import numpy as np

from repro.schema.attribute_graph import AttributeMatchInduction


class LooseAttributeMatchInduction(AttributeMatchInduction):
    """LMI: clusters of mutually nearly-most-similar attributes.

    Parameters
    ----------
    alpha:
        The "nearly similar" factor of Algorithm 1; a pair is a candidate
        when its similarity reaches ``alpha`` times the maximum similarity
        of either endpoint.  The paper's example value is 0.9.
    glue_cluster:
        Whether singleton attributes are gathered in the glue cluster
        (cluster id 0).  Disable to reproduce the Figure 10 setting.
    """

    def __init__(self, alpha: float = 0.9, glue_cluster: bool = True) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.glue_cluster = glue_cluster

    def _links(
        self, src: np.ndarray, dst: np.ndarray, sim: np.ndarray, maxima: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The mutual candidates (Algorithm 1, lines 9-16).

        ``>=`` against the float64 product ``alpha * max_i``, on both
        endpoints: the reciprocal form of a node-maxima threshold.
        """
        mutual = (sim >= self.alpha * maxima[src]) & (sim >= self.alpha * maxima[dst])
        return src[mutual], dst[mutual]
