"""Composable pipeline stages: the building blocks of every BLAST variant.

The paper presents BLAST as three swappable phases (Figure 4); this module
turns that composition into a first-class API.  A :class:`Stage` is a named,
introspectable unit of work that reads and writes a shared
:class:`PipelineContext` (dataset, attributes partitioning, current block
collection, free-form artifacts).  A :class:`Pipeline` executes a stage
sequence with uniform per-stage instrumentation — wall-clock seconds plus
input/output block counts and comparison cardinalities — surfaced as
:class:`StageReport` entries on :class:`BlastResult.stage_reports`.

Every paper variant becomes a declarative stage list::

    >>> from repro.core.stages import (
    ...     Pipeline, SchemaExtraction, SchemaAwareBlockingStage,
    ...     BlockPurgingStage, BlockFilteringStage, MetaBlockingStage)
    >>> pipeline = Pipeline([
    ...     SchemaExtraction(),
    ...     SchemaAwareBlockingStage(),
    ...     BlockPurgingStage(),
    ...     BlockFilteringStage(),
    ...     MetaBlockingStage(),
    ... ])  # == Blast.default_pipeline()

Swap ``MetaBlockingStage(use_entropy=False)`` for the ``chi`` ablation of
Figure 8, replace the blocking stage with a :class:`BlockerStage` adapter
around any baseline blocker for the survey comparisons, or drop the
meta-blocking stage to reproduce the pre-meta-blocking "T"/"L" collections
of Tables 4/5.  See DESIGN.md for the full catalogue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from repro.blocking.base import BlockCollection
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.blocking.schema_aware import LooselySchemaAwareBlocking, make_key_entropy
from repro.blocking.token import TokenBlocking
from repro.core.config import BlastConfig
from repro.data.dataset import ERDataset
from repro.graph.blocking_graph import BlockingGraph, Edge
from repro.graph.metablocking import MetaBlocker
from repro.graph.pruning import BlastPruning, PruningScheme
from repro.graph.weights import WeightingScheme
from repro.schema.partition import AttributePartitioning
from repro.utils.timer import Timer

#: A pluggable weighting: either a built-in scheme or any callable that
#: maps a blocking graph to per-edge weights (the extension point the
#: ``@register_weighting`` decorator targets).
WeightingSpec = WeightingScheme | Callable[[BlockingGraph], dict[Edge, float]]

#: Artifact key under which :class:`MetaBlockingStage` preserves the block
#: collection it consumed (the ``initial_blocks`` of :class:`BlastResult`).
INITIAL_BLOCKS = "initial_blocks"


class PipelineError(RuntimeError):
    """A stage's inputs are missing or a pipeline is malformed."""


@dataclass
class PipelineContext:
    """The shared state a pipeline's stages read and write.

    Attributes
    ----------
    dataset:
        The ER task being processed; set once, never replaced by stages.
    partitioning:
        The loose schema (attributes partitioning with entropies), produced
        by :class:`SchemaExtraction` and consumed by the schema-aware
        blocking and meta-blocking stages.
    blocks:
        The current block collection; each blocking/restructuring stage
        replaces it.
    artifacts:
        Free-form side outputs keyed by name (e.g. the pre-meta-blocking
        collection under :data:`INITIAL_BLOCKS`).
    """

    dataset: ERDataset
    partitioning: AttributePartitioning | None = None
    blocks: BlockCollection | None = None
    artifacts: dict[str, Any] = field(default_factory=dict)

    def require_partitioning(self, stage: "Stage") -> AttributePartitioning:
        """The partitioning, or a :class:`PipelineError` naming the culprit."""
        if self.partitioning is None:
            raise PipelineError(
                f"stage {stage.name!r} needs an attributes partitioning; "
                "run a SchemaExtraction stage first (or seed the context)"
            )
        return self.partitioning

    def require_blocks(self, stage: "Stage") -> BlockCollection:
        """The current blocks, or a :class:`PipelineError` naming the culprit."""
        if self.blocks is None:
            raise PipelineError(
                f"stage {stage.name!r} needs a block collection; "
                "run a blocking stage first (or seed the context)"
            )
        return self.blocks


@dataclass(frozen=True)
class StageReport:
    """Instrumentation of one stage execution.

    Block counts and comparison cardinalities are ``None`` when the context
    carried no block collection on that side of the stage (e.g. the input of
    the first blocking stage, or both sides of a schema stage).
    """

    stage: str
    """The stage's name."""

    phase: str
    """The paper phase the stage belongs to (schema/blocking/metablocking)."""

    seconds: float
    """Wall-clock seconds spent inside the stage."""

    blocks_in: int | None = None
    comparisons_in: int | None = None
    blocks_out: int | None = None
    comparisons_out: int | None = None

    def formatted(self) -> str:
        """One aligned summary line (used by the CLI and examples)."""
        def fmt(value: int | None) -> str:
            return "-" if value is None else f"{value:,}"

        return (
            f"{self.stage:>24}  {self.seconds:8.3f}s  "
            f"blocks {fmt(self.blocks_in):>12} -> {fmt(self.blocks_out):<12} "
            f"comparisons {fmt(self.comparisons_in):>14} -> "
            f"{fmt(self.comparisons_out):<14}"
        )


@runtime_checkable
class Stage(Protocol):
    """The pipeline stage protocol: a named unit mutating the context.

    Any object with a ``name``, a ``phase`` and an ``apply(context)`` method
    is a stage — the concrete classes below subclass :class:`BaseStage` for
    convenience, but duck-typed stages compose just as well.
    """

    name: str
    phase: str

    def apply(self, context: PipelineContext) -> None:
        """Execute the stage, reading and writing *context* in place."""
        ...


class BaseStage(ABC):
    """Convenience ABC: concrete stages override :meth:`apply`."""

    #: Display/registry name; classes override or set per instance.
    name: str = "stage"
    #: Paper phase for phase-level timing aggregation.
    phase: str = "blocking"
    #: Whether the stage reads ``context.partitioning`` (used by
    #: :func:`repro.core.registry.build_pipeline` to decide if a schema
    #: extraction stage must precede it).
    needs_partitioning: bool = False

    @abstractmethod
    def apply(self, context: PipelineContext) -> None:
        """Execute the stage, reading and writing *context* in place."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class SchemaExtraction(BaseStage):
    """Phase 1: loose schema extraction (LMI or AC, optional LSH, entropies).

    Produces ``context.partitioning``.  All tunables come from a
    :class:`BlastConfig`; the stage is the single implementation behind
    ``Blast.extract_loose_schema``.  Token sets and entropies are read from
    the dataset's interned corpus; the string-keyed reference lives in
    ``tests/_blocker_oracles.py``.
    """

    name = "schema-extraction"
    phase = "schema"

    def __init__(self, config: BlastConfig | None = None) -> None:
        self.config = config or BlastConfig()

    def apply(self, context: PipelineContext) -> None:
        context.partitioning = self.extract(context.dataset)

    def extract(self, dataset: ERDataset) -> AttributePartitioning:
        """Run the extraction directly, outside a pipeline."""
        from repro.schema.attribute_clustering import AttributeClustering
        from repro.schema.attribute_graph import AttributeGraph
        from repro.schema.entropy import extract_loose_schema_entropies
        from repro.schema.lmi import LooseAttributeMatchInduction

        config = self.config
        floor = config.min_token_length
        corpus = dataset.corpus
        if config.representation == "tfidf":
            # TF-IDF vectors keep the Counter path: their cosine sums are
            # order-sensitive, so reordering terms is not behavior-free.
            partitioning = self._extract_with_tfidf(dataset)
        else:
            if config.induction == "lmi":
                induction = LooseAttributeMatchInduction(
                    alpha=config.alpha, glue_cluster=config.glue_cluster
                )
            else:
                induction = AttributeClustering(glue_cluster=config.glue_cluster)
            graph = AttributeGraph.from_corpus(corpus, floor)
            if config.use_lsh:
                from repro.lsh.banding import lsh_candidate_pairs

                graph = graph.restricted_to(
                    lsh_candidate_pairs(
                        corpus,
                        floor,
                        threshold=config.lsh_threshold,
                        num_hashes=config.lsh_num_hashes,
                        seed=config.seed,
                    )
                )
            partitioning = induction.decide(graph, graph.jaccard())
        return extract_loose_schema_entropies(partitioning, corpus, floor)

    def _extract_with_tfidf(self, dataset: ERDataset) -> AttributePartitioning:
        from repro.schema.representation import (
            TfIdfAttributeModel,
            tfidf_attribute_match_induction,
        )

        config = self.config
        model = TfIdfAttributeModel(
            dataset.collection1,
            dataset.collection2,
            min_token_length=config.min_token_length,
        )
        return tfidf_attribute_match_induction(
            model,
            method=config.induction,
            alpha=config.alpha,
            glue_cluster=config.glue_cluster,
        )


class BlockerStage(BaseStage):
    """Adapter turning any blocker with ``build(dataset)`` into a stage.

    Wraps the baselines of ``repro.blocking`` (q-grams, suffix-array,
    canopy, standard blocking, ...) so they can slot into the same pipeline
    position as the paper's token blocking::

        >>> from repro.blocking import QGramsBlocking
        >>> stage = BlockerStage(QGramsBlocking(q=3), name="qgrams")
    """

    def __init__(self, blocker: Any, name: str | None = None) -> None:
        if not callable(getattr(blocker, "build", None)):
            raise TypeError(
                f"{type(blocker).__name__} has no build(dataset) method"
            )
        self.blocker = blocker
        self.name = name or type(blocker).__name__

    def apply(self, context: PipelineContext) -> None:
        context.blocks = self.blocker.build(context.dataset)


class TokenBlockingStage(BlockerStage):
    """Schema-agnostic Token Blocking (the "T" collections of Tables 4/5)."""

    def __init__(self, min_token_length: int = 2) -> None:
        super().__init__(
            TokenBlocking(min_token_length=min_token_length), name="token-blocking"
        )


class SchemaAwareBlockingStage(BaseStage):
    """Phase 2 blocking: Token Blocking disambiguated by attribute cluster.

    Reads ``context.partitioning`` (fails with a clear error when no schema
    stage ran) and replaces ``context.blocks``.
    """

    name = "schema-aware-blocking"
    needs_partitioning = True

    def __init__(
        self,
        min_token_length: int = 2,
        transformation: str = "token",
        q: int = 3,
    ) -> None:
        self.min_token_length = min_token_length
        self.transformation = transformation
        self.q = q

    def apply(self, context: PipelineContext) -> None:
        partitioning = context.require_partitioning(self)
        blocker = LooselySchemaAwareBlocking(
            partitioning,
            min_token_length=self.min_token_length,
            transformation=self.transformation,
            q=self.q,
        )
        context.blocks = blocker.build(context.dataset)


class BlockPurgingStage(BaseStage):
    """Block Purging: drop blocks covering too large a fraction of profiles."""

    name = "block-purging"

    def __init__(
        self,
        max_profile_ratio: float = 0.5,
        max_comparisons: int | None = None,
    ) -> None:
        self.max_profile_ratio = max_profile_ratio
        self.max_comparisons = max_comparisons

    def apply(self, context: PipelineContext) -> None:
        context.blocks = block_purging(
            context.require_blocks(self),
            context.dataset.num_profiles,
            max_profile_ratio=self.max_profile_ratio,
            max_comparisons=self.max_comparisons,
        )


class BlockFilteringStage(BaseStage):
    """Block Filtering: keep each profile in its smallest blocks only."""

    name = "block-filtering"

    def __init__(self, ratio: float = 0.8) -> None:
        self.ratio = ratio

    def apply(self, context: PipelineContext) -> None:
        context.blocks = block_filtering(
            context.require_blocks(self), ratio=self.ratio
        )


class MetaBlockingStage(BaseStage):
    """Phase 3: graph-based meta-blocking (weighting + pruning).

    Parameters
    ----------
    weighting:
        A :class:`WeightingScheme` or any callable ``graph -> {edge: weight}``
        (custom weightings registered via ``@register_weighting``).
    pruning:
        The pruning scheme; BLAST's max-based rule by default.
    entropy_boost:
        Multiply traditional weights by ``h(B_uv)`` (the ``wsh`` ablation).
    use_entropy:
        Feed the partitioning's cluster entropies into the blocking graph.
        Requires ``context.partitioning``; with ``False`` (the ``chi``
        ablation) or a partitioning-free pipeline, every key counts 1.0.
    backend:
        Execution backend name (``"vectorized"`` default, ``"parallel"``
        sharded multi-process, ``"python"`` reference, or any
        ``register_backend`` addition).  Custom weighting callables and
        pruning schemes automatically fall back to the reference path, so
        any combination is valid.
    backend_options:
        Extra keyword arguments for the backend callable (e.g. the
        ``parallel`` backend's ``workers``/``shard_size``);
        ``BlastConfig.backend_options()`` derives them from a config.

    The collection the stage consumed is preserved under
    ``context.artifacts[INITIAL_BLOCKS]``.
    """

    name = "meta-blocking"
    phase = "metablocking"

    def __init__(
        self,
        weighting: WeightingSpec = WeightingScheme.CHI_H,
        pruning: PruningScheme | None = None,
        entropy_boost: bool = False,
        use_entropy: bool = True,
        backend: str = "vectorized",
        backend_options: dict | None = None,
    ) -> None:
        self.weighting = weighting
        self.pruning = pruning if pruning is not None else BlastPruning()
        self.entropy_boost = entropy_boost
        self.use_entropy = use_entropy
        self.backend = backend
        self.backend_options = dict(backend_options or {})

    def apply(self, context: PipelineContext) -> None:
        blocks = context.require_blocks(self)
        context.artifacts[INITIAL_BLOCKS] = blocks
        key_entropy = (
            make_key_entropy(context.partitioning)
            if self.use_entropy and context.partitioning is not None
            else None
        )
        meta = MetaBlocker(
            weighting=self.weighting,
            pruning=self.pruning,
            entropy_boost=self.entropy_boost,
            key_entropy=key_entropy,
            backend=self.backend,
            backend_options=self.backend_options,
        )
        context.blocks = meta.run(blocks)


@dataclass
class BlastResult:
    """Everything a pipeline produced, stage by stage."""

    blocks: BlockCollection
    """The final restructured block collection (one comparison per block)."""

    initial_blocks: BlockCollection
    """The collection fed to meta-blocking (purged and filtered); equals
    ``blocks`` for pipelines without a meta-blocking stage."""

    partitioning: AttributePartitioning | None
    """The attributes partitioning with aggregate entropies attached, or
    ``None`` for pipelines without a schema stage."""

    phase_seconds: dict[str, float] = field(default_factory=dict)
    """Wall-clock seconds per phase (keys: schema, blocking, metablocking),
    aggregated from :attr:`stage_reports`."""

    stage_reports: list[StageReport] = field(default_factory=list)
    """Per-stage instrumentation, in execution order."""

    @property
    def overhead_seconds(self) -> float:
        """Total overhead time ``to`` (the paper's Tables 4, 5)."""
        return sum(self.phase_seconds.values())

    def report(self) -> str:
        """A human-readable per-stage instrumentation table."""
        lines = [r.formatted() for r in self.stage_reports]
        lines.append(f"{'total':>24}  {self.overhead_seconds:8.3f}s")
        return "\n".join(lines)


class Pipeline:
    """An executable sequence of stages with per-stage instrumentation.

    ``run(dataset)`` creates a fresh context, executes every stage, and
    wraps the outcome in a :class:`BlastResult`; ``execute(context)`` runs
    the stages against a caller-provided (possibly pre-seeded) context and
    returns the stage reports — the form :func:`repro.core.prepare_blocks`
    composes.
    """

    def __init__(self, stages: Iterable[Stage]) -> None:
        self.stages: list[Stage] = list(stages)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        for stage in self.stages:
            if not callable(getattr(stage, "apply", None)):
                raise TypeError(f"{stage!r} does not implement the Stage protocol")

    def __repr__(self) -> str:
        return f"Pipeline([{', '.join(s.name for s in self.stages)}])"

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def execute(self, context: PipelineContext) -> list[StageReport]:
        """Run every stage against *context*; return the per-stage reports."""
        reports: list[StageReport] = []
        for stage in self.stages:
            blocks_in, comparisons_in = _block_stats(context.blocks)
            with Timer() as timer:
                stage.apply(context)
            blocks_out, comparisons_out = _block_stats(context.blocks)
            reports.append(
                StageReport(
                    stage=stage.name,
                    phase=getattr(stage, "phase", "blocking"),
                    seconds=timer.elapsed,
                    blocks_in=blocks_in,
                    comparisons_in=comparisons_in,
                    blocks_out=blocks_out,
                    comparisons_out=comparisons_out,
                )
            )
        return reports

    def run(self, dataset: ERDataset) -> BlastResult:
        """Execute the pipeline on *dataset* from a fresh context."""
        context = PipelineContext(dataset)
        reports = self.execute(context)
        if context.blocks is None:
            raise PipelineError(
                f"{self!r} produced no block collection; add a blocking stage "
                "or drive the stages through execute() instead"
            )
        phase_seconds: dict[str, float] = {}
        for report in reports:
            phase_seconds[report.phase] = (
                phase_seconds.get(report.phase, 0.0) + report.seconds
            )
        initial = context.artifacts.get(INITIAL_BLOCKS, context.blocks)
        return BlastResult(
            blocks=context.blocks,
            initial_blocks=initial,
            partitioning=context.partitioning,
            phase_seconds=phase_seconds,
            stage_reports=reports,
        )


def _block_stats(
    blocks: BlockCollection | None,
) -> tuple[int | None, int | None]:
    """(block count, comparison cardinality) of *blocks*, or (None, None)."""
    if blocks is None:
        return None, None
    return len(blocks), blocks.aggregate_cardinality


def compose(*stages: Stage | Sequence[Stage]) -> Pipeline:
    """Build a :class:`Pipeline` from stages or nested stage sequences.

    >>> pipeline = compose(TokenBlockingStage(), [BlockPurgingStage(),
    ...                                           BlockFilteringStage()])
    >>> pipeline.stage_names
    ('token-blocking', 'block-purging', 'block-filtering')
    """
    flat: list[Stage] = []
    for item in stages:
        if isinstance(item, Sequence) and not isinstance(item, (str, bytes)):
            flat.extend(item)
        else:
            flat.append(item)  # type: ignore[arg-type]
    return Pipeline(flat)
