"""Unit tests: experiment configs, path resolution, grid expansion.

The declarative surface of :mod:`repro.experiments` — everything that
must fail loudly at config-load time (unknown keys, unregistered
component names, impossible sizes) and the deterministic pieces the
engine builds on (metric paths, grid expansion, run utilities).
"""

from __future__ import annotations

import json

import pytest

from repro.core.config import BlastConfig
from repro.experiments import (
    DatasetSpec,
    ExperimentConfig,
    PathError,
    PipelineSpec,
    Tolerance,
    expand_grid,
    load_config,
    resolve_path,
)
from repro.experiments.config import CompareSpec
from repro.experiments.runutils import (
    BASE_PROFILES,
    pairs_digest,
    scale_for_profiles,
)


class TestResolvePath:
    DOC = {
        "profiles": 10,
        "runs": [
            {"scheme": "chi_h", "retained_edges": 4712},
            {"scheme": "cbs", "retained_edges": 10564},
        ],
        "cells": [{"id": "ar1/chi_h/vectorized", "quality": {"f1": 0.9}}],
    }

    def test_plain_key(self):
        assert resolve_path(self.DOC, "profiles") == 10

    def test_key_value_selector(self):
        assert (
            resolve_path(self.DOC, "runs[scheme=cbs].retained_edges") == 10564
        )

    def test_selector_value_may_contain_slashes(self):
        assert (
            resolve_path(self.DOC, "cells[id=ar1/chi_h/vectorized].quality.f1")
            == 0.9
        )

    @pytest.mark.parametrize("path", [
        "nope",
        "runs[scheme=zzz].retained_edges",
        "runs[9].scheme",
        "profiles.deeper",
        "profiles[0]",
        "",
    ])
    def test_unresolvable_paths_raise(self, path):
        with pytest.raises(PathError):
            resolve_path(self.DOC, path)


class TestTolerance:
    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            Tolerance(relative=-0.1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Tolerance(absolute=float("inf"))


class TestSpecs:
    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError, match="unknown clean dataset"):
            DatasetSpec(name="nope")

    def test_dirty_kind_selects_dirty_catalogue(self):
        assert DatasetSpec(name="census", kind="dirty").display_label == "census"
        with pytest.raises(ValueError, match="unknown dirty dataset"):
            DatasetSpec(name="ar1", kind="dirty")

    def test_scale_and_profiles_conflict(self):
        with pytest.raises(ValueError, match="not both"):
            DatasetSpec(name="ar1", scale=1.0, profiles=100)

    def test_smoke_cap_only_shrinks(self):
        spec = DatasetSpec(name="ar1", profiles=10_000)
        assert spec.effective_scale(500) == scale_for_profiles("ar1", 500)
        small = DatasetSpec(name="ar1", profiles=100)
        assert small.effective_scale(500) == scale_for_profiles("ar1", 100)

    def test_unknown_pipeline_component_rejected(self):
        with pytest.raises(ValueError, match="unknown weighting"):
            PipelineSpec(label="x", weighting="nope")
        with pytest.raises(ValueError, match="unknown pruning"):
            PipelineSpec(label="x", pruning="nope")

    def test_pipeline_overrides_validated_eagerly(self):
        with pytest.raises(ValueError, match="unknown BlastConfig field"):
            PipelineSpec(label="x", config={"use_entropee": False})

    def test_execution_knobs_rejected_in_overrides(self):
        with pytest.raises(ValueError, match="through the grid"):
            PipelineSpec(label="x", config={"workers": 4})

    def test_blast_config_carries_overrides_and_grid_point(self):
        spec = PipelineSpec(label="x", config={"use_entropy": False})
        config = spec.blast_config("parallel", 3, seed=7)
        assert config.use_entropy is False
        assert config.backend == "parallel"
        assert config.workers == 3
        assert config.seed == 7
        serial = spec.blast_config("vectorized", 3, seed=7)
        assert serial.workers is None  # serial backends take no workers knob

    def test_compare_spec_must_gate_something(self):
        with pytest.raises(ValueError, match="gates nothing"):
            CompareSpec(baseline="")

    @pytest.mark.parametrize("removed", [
        {"cells": True},
        {"metrics": [{"name": "profiles", "baseline": "profiles"}]},
    ], ids=["cells", "metrics"])
    def test_removed_compare_keys_are_unknown(self, removed):
        with pytest.raises(
            ValueError,
            match=r"compare: unknown key\(s\) .*; allowed: baseline, tolerance",
        ):
            CompareSpec.from_mapping({"baseline": "b.json", **removed})


class TestExperimentConfig:
    def _minimal(self, **overrides):
        data = {
            "name": "t",
            "datasets": [{"name": "ar1", "profiles": 100}],
            "pipelines": [{"label": "p", "blocker": "token"}],
        }
        data.update(overrides)
        return data

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            ExperimentConfig.from_mapping(self._minimal(typo=1))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ExperimentConfig.from_mapping(self._minimal(backends=["nope"]))

    def test_unknown_reporter_rejected(self):
        with pytest.raises(ValueError, match="unknown reporter"):
            ExperimentConfig.from_mapping(self._minimal(reporters=["nope"]))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate pipeline labels"):
            ExperimentConfig.from_mapping(self._minimal(
                pipelines=[{"label": "p"}, {"label": "p"}]
            ))

    def test_grid_expansion_serial_vs_parallel(self):
        config = ExperimentConfig.from_mapping(self._minimal(
            backends=["vectorized", "parallel"], workers=[1, 2]
        ))
        cells = expand_grid(config)
        ids = [cell.id for cell in cells]
        assert ids == [
            "ar1/p/vectorized",
            "ar1/p/parallel/w1",
            "ar1/p/parallel/w2",
        ]

    def test_json_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self._minimal()), encoding="utf-8")
        config = load_config(path)
        assert config.name == "t"
        assert config.datasets[0].profiles == 100

    def test_load_errors_name_the_file(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(self._minimal(typo=1)), encoding="utf-8")
        with pytest.raises(ValueError, match="exp.json"):
            load_config(path)

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported config suffix"):
            load_config(path)


class TestRunUtils:
    def test_scale_round_trips_base_profiles(self):
        for name, base in BASE_PROFILES.items():
            assert scale_for_profiles(name, base) == pytest.approx(1.0)

    def test_scale_rejects_unknown_and_nonpositive(self):
        with pytest.raises(ValueError, match="no base profile count"):
            scale_for_profiles("nope", 10)
        with pytest.raises(ValueError, match="positive"):
            scale_for_profiles("ar1", 0)

    def test_pairs_digest_is_order_independent(self):
        forward = pairs_digest([(1, 2), (3, 4)])
        assert forward == pairs_digest([(3, 4), (1, 2)])
        assert forward != pairs_digest([(1, 2)])


class TestBlastConfigFromMapping:
    def test_unknown_keys_listed(self):
        with pytest.raises(ValueError, match="unknown BlastConfig field"):
            BlastConfig.from_mapping({"alpha": 0.5, "alphaa": 0.5})

    def test_removed_pool_knob_is_an_unknown_field(self):
        with pytest.raises(ValueError, match="unknown BlastConfig field.* pool;"):
            BlastConfig.from_mapping({"backend": "parallel", "pool": "per-run"})

    def test_removed_spill_knobs_are_unknown_fields(self):
        with pytest.raises(
            ValueError,
            match="unknown BlastConfig field.* spill_dir, spill_threshold_mb;",
        ):
            BlastConfig.from_mapping({"spill_dir": "x", "spill_threshold_mb": 1})

    def test_valid_mapping_builds(self):
        config = BlastConfig.from_mapping({"alpha": 0.5, "weighting": "cbs"})
        assert config.alpha == 0.5
