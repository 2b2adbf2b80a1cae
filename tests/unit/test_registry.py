"""Tests for the component registry (repro.core.registry)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import BlastConfig, PipelineError, build_pipeline
from repro.core.registry import BLOCKERS, PRUNERS, WEIGHTINGS, Registry
from repro.core.stages import Stage
from repro.graph.pruning import PruningScheme
from repro.graph.weights import WeightingScheme


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("widget")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert len(registry) == 1

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("factory")
        def make():
            return "made"

        assert registry.get("factory") is make
        assert make() == "made"  # the decorator returns the function intact

    def test_duplicate_registration_raises(self):
        registry = Registry("widget")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("a", 2)
        assert registry.get("a") == 1  # first registration wins

    def test_unknown_name_lists_valid_names(self):
        registry = Registry("widget")
        registry.register("alpha", 1)
        registry.register("beta", 2)
        with pytest.raises(ValueError) as excinfo:
            registry.get("gamma")
        message = str(excinfo.value)
        assert "gamma" in message
        assert "alpha" in message and "beta" in message

    def test_empty_or_non_string_names_rejected(self):
        registry = Registry("widget")
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register("", 1)
        with pytest.raises(ValueError, match="non-empty string"):
            registry.register(3, 1)

    def test_names_sorted(self):
        registry = Registry("widget")
        for name in ("zeta", "alpha", "mid"):
            registry.register(name, name)
        assert registry.names() == ("alpha", "mid", "zeta")
        assert list(registry) == ["alpha", "mid", "zeta"]


class TestBuiltinRegistrations:
    def test_blockers(self):
        assert set(BLOCKERS.names()) >= {
            "canopy", "qgrams", "schema-aware", "suffix-array", "token"
        }

    def test_weightings_cover_every_scheme(self):
        for scheme in WeightingScheme:
            assert WEIGHTINGS.get(scheme.value) is scheme

    def test_prunings(self):
        assert set(PRUNERS.names()) >= {
            "blast", "cep", "cnp1", "cnp2", "supervised", "wep", "wnp1", "wnp2"
        }
        for name in PRUNERS.names():
            pruning = PRUNERS.get(name)(BlastConfig())
            assert isinstance(pruning, (PruningScheme, Stage))

    def test_supervised_is_a_meta_blocking_stage_seeded_by_the_config(self):
        stage = PRUNERS.get("supervised")(BlastConfig(seed=42))
        assert isinstance(stage, Stage) and stage.phase == "metablocking"
        assert stage.seed == 42

    def test_registry_import_leaves_supervised_unimported(self):
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        code = (
            "import sys, repro.core.registry; "
            "print('repro.supervised' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert result.stdout.strip() == "False"

    def test_unknown_blocker_error_names_the_alternatives(self):
        with pytest.raises(ValueError) as excinfo:
            BLOCKERS.get("sorted-neighborhood")
        assert "suffix-array" in str(excinfo.value)


class TestBuildPipeline:
    def test_schema_aware_gets_schema_stage_prepended(self):
        assert build_pipeline().stage_names == (
            "schema-extraction",
            "schema-aware-blocking",
            "block-purging",
            "block-filtering",
            "meta-blocking",
        )

    def test_schema_free_blocker_skips_schema_stage(self):
        assert build_pipeline(blocker="token").stage_names == (
            "token-blocking",
            "block-purging",
            "block-filtering",
            "meta-blocking",
        )

    def test_registry_names_resolve_end_to_end(self, tiny_clean_clean):
        pipeline = build_pipeline(
            blocker="suffix-array", weighting="cbs", pruning="wnp1"
        )
        result = pipeline.run(tiny_clean_clean)
        assert result.blocks.aggregate_cardinality == len(result.blocks)

    def test_stage_pruning_replaces_the_meta_blocking_stage(
        self, tiny_clean_clean
    ):
        from repro.core import prepare_blocks
        from repro.supervised import SupervisedMetaBlocking

        pipeline = build_pipeline(
            BlastConfig(seed=42), blocker="token", pruning="supervised"
        )
        assert pipeline.stage_names == (
            "token-blocking",
            "block-purging",
            "block-filtering",
            "supervised-meta-blocking",
        )
        result = pipeline.run(tiny_clean_clean)
        blocks = prepare_blocks(tiny_clean_clean)
        expected = SupervisedMetaBlocking(seed=42).run(blocks, tiny_clean_clean)
        assert list(result.blocks) == list(expected)
        assert list(result.initial_blocks) == list(blocks)

    def test_supervised_stage_without_ground_truth_raises(self, tiny_clean_clean):
        from repro.data import ERDataset, GroundTruth

        unlabelled = ERDataset(
            tiny_clean_clean.collection1, tiny_clean_clean.collection2,
            GroundTruth([], clean_clean=True), "unlabelled",
        )
        pipeline = build_pipeline(blocker="token", pruning="supervised")
        with pytest.raises(PipelineError, match="ground-truth"):
            pipeline.run(unlabelled)

    def test_unknown_names_raise(self):
        with pytest.raises(ValueError, match="unknown blocker"):
            build_pipeline(blocker="nope")
        with pytest.raises(ValueError, match="unknown weighting"):
            build_pipeline(weighting="nope")
        with pytest.raises(ValueError, match="unknown pruning"):
            build_pipeline(pruning="nope")
