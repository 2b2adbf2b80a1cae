"""Tests for the stage-based pipeline API (repro.core.stages)."""

import pytest

from _blocker_oracles import string_schema
from _schema_oracles import string_entropies
from repro.blocking.qgrams import QGramsBlocking
from repro.core import (
    Blast,
    BlastConfig,
    BlockerStage,
    BlockFilteringStage,
    BlockPurgingStage,
    MetaBlockingStage,
    Pipeline,
    PipelineContext,
    PipelineError,
    SchemaAwareBlockingStage,
    SchemaExtraction,
    TokenBlockingStage,
    build_pipeline,
    compose,
    prepare_blocks,
)
from repro.blocking.base import BlockCollection
from repro.datasets import load_clean_clean
from repro.graph.pruning import BlastPruning


def canonical(collection):
    """A comparable, fully-ordered rendering of a block collection."""
    return [
        (block.key, sorted(block.left), sorted(block.right or []))
        for block in collection
    ]


@pytest.fixture(scope="module")
def seeded_benchmark():
    """A seeded real benchmark dataset (acceptance-criterion workload)."""
    return load_clean_clean("ar1", scale=0.2, seed=42)


class TestPipelineEquivalence:
    def test_default_pipeline_matches_blast_run(self, seeded_benchmark):
        facade = Blast().run(seeded_benchmark)
        pipeline = Blast.default_pipeline().run(seeded_benchmark)
        assert canonical(pipeline.blocks) == canonical(facade.blocks)
        assert canonical(pipeline.initial_blocks) == canonical(
            facade.initial_blocks
        )

    def test_registry_resolved_pipeline_matches_blast_run(self, seeded_benchmark):
        config = BlastConfig()
        facade = Blast(config).run(seeded_benchmark)
        resolved = build_pipeline(
            config, blocker="schema-aware", weighting="chi_h", pruning="blast"
        ).run(seeded_benchmark)
        assert canonical(resolved.blocks) == canonical(facade.blocks)

    def test_explicit_stage_list_matches_blast_run(self, seeded_benchmark):
        config = BlastConfig()
        explicit = Pipeline([
            SchemaExtraction(config),
            SchemaAwareBlockingStage(min_token_length=config.min_token_length),
            BlockPurgingStage(max_profile_ratio=config.purging_ratio),
            BlockFilteringStage(ratio=config.filtering_ratio),
            MetaBlockingStage(
                weighting=config.weighting,
                pruning=BlastPruning(c=config.pruning_c, d=config.pruning_d),
                entropy_boost=config.entropy_boost,
                use_entropy=config.use_entropy,
                backend=config.backend,
                backend_options=config.backend_options(),
            ),
        ]).run(seeded_benchmark)
        facade = Blast(config).run(seeded_benchmark)
        assert canonical(explicit.blocks) == canonical(facade.blocks)

    def test_prepare_blocks_matches_pipeline_composition(self, seeded_benchmark):
        via_function = prepare_blocks(seeded_benchmark)
        context = PipelineContext(seeded_benchmark)
        Pipeline([
            TokenBlockingStage(),
            BlockPurgingStage(),
            BlockFilteringStage(),
        ]).execute(context)
        assert canonical(context.blocks) == canonical(via_function)


class TestStageReports:
    def test_reports_cover_every_stage_in_order(self, tiny_clean_clean):
        result = Blast().run(tiny_clean_clean)
        assert [r.stage for r in result.stage_reports] == [
            "schema-extraction",
            "schema-aware-blocking",
            "block-purging",
            "block-filtering",
            "meta-blocking",
        ]
        assert all(r.seconds >= 0 for r in result.stage_reports)

    def test_block_statistics_flow_between_stages(self, tiny_clean_clean):
        result = Blast().run(tiny_clean_clean)
        schema, blocking, purging, filtering, meta = result.stage_reports
        # the schema stage touches no blocks
        assert schema.blocks_in is None and schema.blocks_out is None
        # the first blocking stage has no block input but produces some
        assert blocking.blocks_in is None
        assert blocking.blocks_out > 0
        # each later stage's input equals the previous stage's output
        assert purging.blocks_in == blocking.blocks_out
        assert filtering.blocks_in == purging.blocks_out
        assert meta.blocks_in == filtering.blocks_out
        assert meta.comparisons_in == filtering.comparisons_out
        # final collection is redundancy-free: one comparison per block
        assert meta.comparisons_out == meta.blocks_out == len(result.blocks)

    def test_phase_seconds_aggregates_reports(self, tiny_clean_clean):
        result = Blast().run(tiny_clean_clean)
        assert set(result.phase_seconds) == {"schema", "blocking", "metablocking"}
        assert result.overhead_seconds == pytest.approx(
            sum(r.seconds for r in result.stage_reports)
        )

    def test_report_renders_every_stage(self, tiny_clean_clean):
        result = Blast().run(tiny_clean_clean)
        text = result.report()
        for report in result.stage_reports:
            assert report.stage in text
        assert "total" in text


class TestPipelineValidation:
    def test_empty_pipeline_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Pipeline([])

    def test_non_stage_rejected(self):
        with pytest.raises(TypeError, match="Stage protocol"):
            Pipeline([object()])

    def test_run_without_blocking_stage_fails(self, tiny_clean_clean):
        with pytest.raises(PipelineError, match="no block collection"):
            Pipeline([SchemaExtraction()]).run(tiny_clean_clean)

    def test_schema_aware_blocking_needs_partitioning(self, tiny_clean_clean):
        with pytest.raises(PipelineError, match="schema-aware-blocking"):
            Pipeline([SchemaAwareBlockingStage()]).run(tiny_clean_clean)

    def test_meta_blocking_needs_blocks(self, tiny_clean_clean):
        with pytest.raises(PipelineError, match="meta-blocking"):
            MetaBlockingStage().apply(PipelineContext(tiny_clean_clean))


class TestStageAdapters:
    def test_blocker_stage_wraps_any_blocker(self, tiny_clean_clean):
        result = Pipeline([
            BlockerStage(QGramsBlocking(q=3), name="qgrams"),
            BlockPurgingStage(),
            BlockFilteringStage(),
            MetaBlockingStage(),
        ]).run(tiny_clean_clean)
        assert len(result.blocks) > 0
        assert result.partitioning is None
        assert result.stage_reports[0].stage == "qgrams"

    def test_blocker_stage_rejects_non_blockers(self):
        with pytest.raises(TypeError, match="build"):
            BlockerStage(object())

    def test_custom_callable_weighting(self, tiny_clean_clean):
        def unit_weights(graph):
            return {edge: 1.0 for edge, _ in graph.edges()}

        result = Pipeline([
            TokenBlockingStage(),
            MetaBlockingStage(weighting=unit_weights),
        ]).run(tiny_clean_clean)
        # every edge has the maximal weight, so every edge survives
        assert len(result.blocks) == len(result.initial_blocks.distinct_pairs())

    def test_compose_flattens_nested_sequences(self):
        pipeline = compose(
            TokenBlockingStage(), [BlockPurgingStage(), BlockFilteringStage()]
        )
        assert pipeline.stage_names == (
            "token-blocking", "block-purging", "block-filtering"
        )

    def test_duck_typed_stage(self, tiny_clean_clean):
        class UpperBound:
            name = "upper-bound"
            phase = "blocking"

            def apply(self, context):
                context.blocks = BlockCollection(
                    [b for b in context.blocks if b.num_comparisons <= 2],
                    context.blocks.is_clean_clean,
                )

        result = Pipeline([TokenBlockingStage(), UpperBound()]).run(
            tiny_clean_clean
        )
        assert all(b.num_comparisons <= 2 for b in result.blocks)
        assert result.stage_reports[1].stage == "upper-bound"


class TestAblationCompositions:
    """The Figure 8 configurations as stage swaps (see DESIGN.md)."""

    def test_chi_ablation_entropy_off(self, tiny_clean_clean):
        chi = Pipeline([
            SchemaExtraction(),
            SchemaAwareBlockingStage(),
            BlockPurgingStage(),
            BlockFilteringStage(),
            MetaBlockingStage(use_entropy=False),
        ]).run(tiny_clean_clean)
        assert len(chi.blocks) > 0

    def test_wsh_ablation_entropy_boosted_traditional(self, tiny_clean_clean):
        from repro.graph import WeightingScheme

        wsh = Pipeline([
            SchemaExtraction(),
            SchemaAwareBlockingStage(),
            BlockPurgingStage(),
            BlockFilteringStage(),
            MetaBlockingStage(
                weighting=WeightingScheme.JS, entropy_boost=True
            ),
        ]).run(tiny_clean_clean)
        assert len(wsh.blocks) > 0


class TestSchemaExtractionStage:
    @pytest.mark.parametrize("interned", [True, False])
    @pytest.mark.parametrize("representation", ["binary", "tfidf"])
    def test_entropies_respect_the_token_floor(
        self, seeded_benchmark, interned, representation
    ):
        # Entropies weight blocking keys, so they are taken over the tokens
        # the blocker emits: a non-default floor must reach them.
        from repro.schema.entropy import aggregate_entropies

        config = BlastConfig(min_token_length=4, representation=representation)
        if interned:
            part = SchemaExtraction(config).extract(seeded_benchmark)
        else:
            part = string_schema(seeded_benchmark, config)
        entropies = string_entropies(seeded_benchmark.collection1, 0, 4)
        entropies.update(string_entropies(seeded_benchmark.collection2, 1, 4))
        expected = aggregate_entropies(part, entropies)
        assert part.to_dict()["entropies"] == {
            str(cid): value for cid, value in expected.items()
        }
        at_default_floor = string_entropies(seeded_benchmark.collection1, 0)
        at_default_floor.update(string_entropies(seeded_benchmark.collection2, 1))
        assert aggregate_entropies(part, at_default_floor) != expected

    def test_default_run_builds_no_attribute_profile(self, seeded_benchmark):
        from unittest import mock

        from repro.schema.attribute_profile import AttributeProfile

        def fail(*args, **kwargs):
            raise AssertionError("AttributeProfile built on the default path")

        reference = string_schema(seeded_benchmark)
        with mock.patch.object(AttributeProfile, "__init__", fail):
            part = SchemaExtraction().extract(seeded_benchmark)
        assert part.to_dict() == reference.to_dict()
        assert part.num_clusters > 1

    @pytest.mark.parametrize("induction", ["lmi", "ac"])
    def test_lsh_run_reads_each_token_string_once(self, seeded_benchmark, induction):
        # MinHash hashes each distinct token once, by its string; the
        # attribute sets themselves stay corpus ids end to end.
        from collections import Counter
        from unittest import mock

        from repro.data.corpus import TokenDictionary
        from repro.schema.attribute_profile import AttributeProfile

        def fail(*args, **kwargs):
            raise AssertionError("AttributeProfile built on the LSH path")

        config = BlastConfig(induction=induction, use_lsh=True, lsh_threshold=0.3)
        reference = string_schema(seeded_benchmark, config)
        calls: Counter[int] = Counter()
        token_of = TokenDictionary.token_of

        def counting_token_of(self, tid):
            calls[tid] += 1
            return token_of(self, tid)

        seeded_benchmark.corpus  # built outside the counted region
        with mock.patch.object(AttributeProfile, "__init__", fail), mock.patch.object(
            TokenDictionary, "token_of", counting_token_of
        ):
            part = SchemaExtraction(config).extract(seeded_benchmark)
        assert part.to_dict() == reference.to_dict()
        assert calls and max(calls.values()) == 1
