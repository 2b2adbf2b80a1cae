"""Supervised meta-blocking: classify edges, keep the predicted matches.

Protocol of [Papadakis et al., PVLDB 2014] as used in the paper's
experiments: 10% of the ground-truth matches label the positive training
edges; an equal number of non-matching edges are sampled as negatives; a
linear SVM is trained over the five schema-agnostic edge features; the
retained edges are those classified positive — a WEP-style global decision
(the paper notes WNP is incompatible with the supervised setting because
the classifier's threshold is global).
"""

from __future__ import annotations

import numpy as np

from repro.blocking.base import BlockCollection
from repro.core.stages import INITIAL_BLOCKS, PipelineContext, PipelineError
from repro.data.dataset import ERDataset
from repro.graph.entity_index import pack_pairs
from repro.graph.metablocking import blocks_from_edges
from repro.graph.vectorized import ArrayBlockingGraph
from repro.supervised.features import edge_features
from repro.supervised.svm import LinearSVM
from repro.utils.arrays import sorted_contains
from repro.utils.rng import make_rng


class SupervisedMetaBlocking:
    """The "sup. MB" comparator of Tables 4, 5.

    A pipeline stage in the meta-blocking position (``pruning =
    "supervised"`` resolves to one), as well as a standalone
    :meth:`run` over a prepared collection.

    Parameters
    ----------
    training_fraction:
        Fraction of ground-truth matches used as positive examples (the
        paper uses 10%).
    negative_ratio:
        Negatives sampled per positive (1.0 = balanced, the usual setting).
    seed:
        Seed controlling the training sample and the SVM shuffling.
    """

    name = "supervised-meta-blocking"
    phase = "metablocking"

    def __init__(
        self,
        training_fraction: float = 0.1,
        negative_ratio: float = 1.0,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < training_fraction <= 1.0:
            raise ValueError("training_fraction must be in (0, 1]")
        if negative_ratio <= 0:
            raise ValueError("negative_ratio must be positive")
        self.training_fraction = training_fraction
        self.negative_ratio = negative_ratio
        self.seed = seed

    def apply(self, context: PipelineContext) -> None:
        """Replace ``context.blocks`` with the classifier's retained edges.

        The consumed collection is kept under ``INITIAL_BLOCKS``, as
        ``MetaBlockingStage`` keeps it.  Training needs labels: a dataset
        without ground-truth pairs is an error, not a keep-everything run.
        """
        blocks = context.require_blocks(self)
        if not context.dataset.truth_pairs:
            raise PipelineError(
                f"stage {self.name!r} trains on ground-truth pairs; "
                f"dataset {context.dataset.name!r} has none"
            )
        context.artifacts[INITIAL_BLOCKS] = blocks
        context.blocks = self.run(blocks, context.dataset)

    def run(self, collection: BlockCollection, dataset: ERDataset) -> BlockCollection:
        """Restructure *collection* with the trained edge classifier."""
        graph = ArrayBlockingGraph(collection)
        src, dst = graph.src, graph.dst
        truth = np.array(sorted(dataset.truth_pairs), dtype=np.int64).reshape(-1, 2)
        is_match = sorted_contains(
            pack_pairs(truth[:, 0], truth[:, 1]), pack_pairs(src, dst)
        )
        positive_rows = np.flatnonzero(is_match)
        negative_rows = np.flatnonzero(~is_match)
        # A degenerate graph (no matches survived blocking, or no negatives
        # at all) leaves nothing to learn: keep everything.
        if positive_rows.size and negative_rows.size:
            features = edge_features(graph)
            rng = make_rng(self.seed)
            n_pos = max(1, round(self.training_fraction * positive_rows.size))
            n_neg = min(
                negative_rows.size, max(1, round(self.negative_ratio * n_pos))
            )
            pos_sample = rng.choice(positive_rows.size, size=n_pos, replace=False)
            neg_sample = rng.choice(negative_rows.size, size=n_neg, replace=False)
            train_rows = np.concatenate(
                (positive_rows[pos_sample], negative_rows[neg_sample])
            )
            labels = np.array([1.0] * n_pos + [-1.0] * n_neg, dtype=np.float64)

            svm = LinearSVM(seed=self.seed)
            svm.fit(features[train_rows], labels)
            keep = svm.predict(features) > 0
            src, dst = src[keep], dst[keep]
        return blocks_from_edges(
            np.column_stack((src, dst)), collection.is_clean_clean, presorted=True
        )
