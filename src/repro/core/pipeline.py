"""The BLAST facade (Figure 4): the paper's three phases, end to end.

Phase 1  loose schema information extraction — attribute-match induction
         (LMI or AC, optionally behind the LSH pre-processing step) plus
         aggregate-entropy extraction;
Phase 2  loosely schema-aware blocking — Token Blocking disambiguated by
         attribute cluster, followed by Block Purging and Block Filtering;
Phase 3  loosely schema-aware meta-blocking — chi-squared x entropy edge
         weighting and max-based node-centric pruning.

Works for both clean-clean and dirty ER (Section 4.5): for dirty input,
attribute matching runs within the single source and the meta-blocking is
unchanged.

Since the stage/registry redesign (see DESIGN.md) this module is a thin
facade: :class:`Blast` composes the default five-stage
:class:`repro.core.stages.Pipeline`, and every ablation or baseline is the
same pipeline with stages swapped.
"""

from __future__ import annotations

from repro.blocking.base import BlockCollection
from repro.core.config import BlastConfig
from repro.core.registry import build_pipeline
from repro.core.stages import BlastResult, Pipeline, PipelineContext, SchemaExtraction
from repro.data.dataset import ERDataset
from repro.schema.partition import AttributePartitioning

__all__ = ["Blast", "BlastResult", "prepare_blocks"]


class Blast:
    """The BLAST system: a facade over the default stage pipeline.

    Example
    -------
    >>> from repro.core import Blast
    >>> from repro.datasets import load_clean_clean
    >>> dataset = load_clean_clean("ar1", scale=0.2)
    >>> result = Blast().run(dataset)
    >>> result.blocks.aggregate_cardinality < dataset.brute_force_comparisons()
    True
    """

    def __init__(self, config: BlastConfig | None = None) -> None:
        self.config = config or BlastConfig()

    @classmethod
    def default_pipeline(cls, config: BlastConfig | None = None) -> Pipeline:
        """The paper's five-stage pipeline for *config*.

        ``schema-extraction -> schema-aware-blocking -> block-purging ->
        block-filtering -> meta-blocking`` — the composition ``run()``
        executes, exposed so callers can reorder, drop, or swap stages.
        """
        return build_pipeline(config)

    def pipeline(self) -> Pipeline:
        """This instance's pipeline (built from its config)."""
        return self.default_pipeline(self.config)

    def run(self, dataset: ERDataset) -> BlastResult:
        """Execute all three phases on *dataset*."""
        return self.pipeline().run(dataset)

    def extract_loose_schema(self, dataset: ERDataset) -> AttributePartitioning:
        """Phase 1: attributes partitioning + aggregate entropies."""
        return SchemaExtraction(self.config).extract(dataset)


def prepare_blocks(
    dataset: ERDataset,
    partitioning: AttributePartitioning | None = None,
    purging_ratio: float = 0.5,
    filtering_ratio: float = 0.8,
    min_token_length: int = 2,
) -> BlockCollection:
    """The shared pre-meta-blocking workflow of Section 4.1.

    Token Blocking — plain when *partitioning* is ``None`` (the "T" rows of
    Tables 4/5), disambiguated otherwise (the "L" rows) — followed by Block
    Purging and Block Filtering.  Every comparison in the evaluation starts
    from a collection produced here: the blocking-phase stages of
    :func:`build_pipeline`, run over a context seeded with *partitioning*.
    """
    config = BlastConfig(
        purging_ratio=purging_ratio,
        filtering_ratio=filtering_ratio,
        min_token_length=min_token_length,
    )
    blocker = "token" if partitioning is None else "schema-aware"
    stages = build_pipeline(config, blocker=blocker).stages
    context = PipelineContext(dataset, partitioning=partitioning)
    Pipeline([stage for stage in stages if stage.phase == "blocking"]).execute(
        context
    )
    assert context.blocks is not None
    return context.blocks
