"""The streaming subsystem as a pipeline stage.

:class:`StreamingStage` replays the context's dataset through a
:class:`~repro.streaming.session.StreamingSession` — upserting every
profile, then querying each one — and materializes the union of retained
neighbourhoods as the context's block collection (one comparison per
block, like the batch meta-blocking stage).

With the default ``exact`` consistency the stage is result-equivalent to
``blocking -> purging -> filtering -> meta-blocking`` for the node-centric
pruning schemes: querying every node and taking the union of kept edges is
precisely the redefined node-centric retention rule (and the reciprocal
variants agree because each query already applies the two-endpoint test).
It exists so a streaming deployment can be validated against the batch
pipeline inside the same instrumented :class:`~repro.core.stages.Pipeline`
machinery::

    >>> from repro.core.stages import Pipeline, SchemaExtraction
    >>> from repro.streaming import StreamingStage
    >>> pipeline = Pipeline([SchemaExtraction(), StreamingStage()])
"""

from __future__ import annotations

import numpy as np

from repro.core.config import BlastConfig
from repro.core.stages import BaseStage, PipelineContext
from repro.graph.entity_index import pack_pairs, unpack_pairs
from repro.graph.metablocking import blocks_from_edges
from repro.graph.pruning import PruningScheme
from repro.streaming.session import StreamingSession
from repro.utils.arrays import sorted_unique

__all__ = ["STREAMING_SESSION", "StreamingStage"]

#: Artifact key under which the stage leaves its warmed session.
STREAMING_SESSION = "streaming_session"


class StreamingStage(BaseStage):
    """Blocking + meta-blocking via stream replay and per-node queries.

    Parameters
    ----------
    config:
        Session tunables (weighting, BLAST pruning constants, ratios,
        ``stream_consistency``); a config naming any batch ``backend``
        works, since the session does not read it.
    pruning:
        Optional node-centric pruning override.

    The stage reads ``context.partitioning`` when a schema stage ran
    before it (loosely schema-aware streaming) and works schema-agnostic
    otherwise; the warmed session is preserved under
    ``context.artifacts["streaming_session"]`` for interactive use after
    the pipeline returns.
    """

    name = "streaming-replay"
    phase = "metablocking"

    def __init__(
        self,
        config: BlastConfig | None = None,
        pruning: PruningScheme | None = None,
    ) -> None:
        self.config = config or BlastConfig()
        self.pruning = pruning

    def apply(self, context: PipelineContext) -> None:
        dataset = context.dataset
        session = StreamingSession(
            self.config,
            clean_clean=dataset.is_clean_clean,
            partitioning=context.partitioning,
            pruning=self.pruning,
        )
        for gidx, profile in dataset.iter_profiles():
            session.upsert(profile, source=dataset.source_of(gidx))

        offset2 = dataset.offset2 if dataset.is_clean_clean else None
        pairs: list[tuple[int, int]] = []
        for gidx, profile in dataset.iter_profiles():
            source = dataset.source_of(gidx)
            # Query through the metablocker directly: the session would
            # apply config.stream_query_k, a *serving* cap that must not
            # truncate the batch-equivalent retained neighbourhoods.
            for candidate in session.metablocker.candidates(
                profile.profile_id, k=None, source=source
            ):
                if candidate.source == 0:
                    other = dataset.collection1.index_of(candidate.profile_id)
                else:
                    other = offset2 + dataset.collection2.index_of(
                        candidate.profile_id
                    )
                pairs.append((gidx, other))

        context.artifacts[STREAMING_SESSION] = session
        edges = np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        packed = sorted_unique(pack_pairs(edges[:, 0], edges[:, 1]))
        context.blocks = blocks_from_edges(
            np.column_stack(unpack_pairs(packed)),
            dataset.is_clean_clean,
            presorted=True,
        )
