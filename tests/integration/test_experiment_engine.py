"""Acceptance tests: the experiment engine gates every cell of a run.

Contracts asserted end-to-end:

* ``repro bench benchmarks/configs/scaling.toml`` compares clean against
  its committed engine baseline, and its verdicts carry the historic
  headline numbers of the ar1@10k scaling workload exactly;
* a deliberately degraded run — a changed stage count, a deleted stage,
  a dropped cell — fails the comparison with the offending metric (or
  cell) named in the output and a non-zero exit code;
* the fields the paper tables read — a ``supervised`` cell, a cell's
  ``input_quality`` and the datasets' Table 2 ``characteristics`` —
  equal what the library computes directly.

The full-scale run takes a few seconds, so it happens once per module
and every test reads from it.
"""

from __future__ import annotations

import importlib.util
import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.blocking import TokenBlocking, block_purging
from repro.cli import main
from repro.core import prepare_blocks
from repro.datasets import dataset_characteristics
from repro.experiments import ExperimentConfig, load_config, run_experiment
from repro.experiments.runner import DatasetCache
from repro.experiments.runutils import pairs_digest
from repro.metrics import evaluate_blocks
from repro.supervised import SupervisedMetaBlocking

REPO_ROOT = Path(__file__).resolve().parents[2]
SCALING_CONFIG = REPO_ROOT / "benchmarks" / "configs" / "scaling.toml"
CI_SMOKE_CONFIG = REPO_ROOT / "benchmarks" / "configs" / "ci_smoke.toml"
CI_SMOKE_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "ci_smoke.json"

#: The headline numbers of the ar1@10k scaling workload, unchanged since
#: the first recorded run: profiles, blocks and aggregate comparisons
#: after block filtering, and the edges each weighting scheme retains.
HISTORIC_NUMBERS = {
    "ar1/chi_h/vectorized:profiles": 10_000,
    "ar1/chi_h/vectorized:block-filtering.blocks_out": 4_029,
    "ar1/chi_h/vectorized:block-filtering.comparisons_out": 845_072,
    "ar1/chi_h/vectorized:meta-blocking.blocks_out": 4_712,
    "ar1/cbs/vectorized:meta-blocking.blocks_out": 10_564,
    "ar1/js/vectorized:meta-blocking.blocks_out": 6_719,
    "ar1/ecbs/vectorized:meta-blocking.blocks_out": 7_567,
    "ar1/ejs/vectorized:meta-blocking.blocks_out": 6_704,
    "ar1/arcs/vectorized:meta-blocking.blocks_out": 7_301,
}

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None
    and importlib.util.find_spec("tomli") is None,
    reason="no TOML parser available",
)


@pytest.fixture(scope="module")
def scaling_outcome():
    config = load_config(SCALING_CONFIG)
    return run_experiment(config, config_path=SCALING_CONFIG)


def test_scaling_config_reproduces_committed_bench(scaling_outcome):
    report, comparison = scaling_outcome
    assert comparison is not None
    assert comparison.ok, comparison.summary()
    assert {verdict.status for verdict in comparison.verdicts} == {"ok"}
    gated = {verdict.name for verdict in comparison.verdicts}
    for cell in report["cells"]:
        assert {
            f"{cell['id']}:{suffix}"
            for suffix in ("pc", "pq", "f1", "comparisons", "blocks",
                           "profiles", "pairs_digest")
        } <= gated
        for stage in cell["stages"]:
            assert f"{cell['id']}:{stage}.blocks_out" in gated
            assert f"{cell['id']}:{stage}.comparisons_out" in gated


def test_scaling_report_pins_historic_headline_numbers(scaling_outcome):
    _, comparison = scaling_outcome
    verdicts = {verdict.name: verdict for verdict in comparison.verdicts}
    for name, value in HISTORIC_NUMBERS.items():
        verdict = verdicts[name]
        assert (verdict.baseline, verdict.current) == (value, value), name


def test_degraded_report_fails_comparison_naming_the_metric(
    scaling_outcome, tmp_path, capsys
):
    """A seeded regression must exit non-zero and name the bad metric."""
    report, _ = scaling_outcome
    degraded = json.loads(json.dumps(report))
    for cell in degraded["cells"]:
        if cell["id"] == "ar1/chi_h/vectorized":
            cell["stages"]["meta-blocking"]["blocks_out"] += 100
    degraded_path = tmp_path / "degraded.json"
    degraded_path.write_text(json.dumps(degraded), encoding="utf-8")

    code = main(
        ["bench", str(SCALING_CONFIG), "--compare-only", str(degraded_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION  ar1/chi_h/vectorized:meta-blocking.blocks_out" in (
        captured.out
    )
    assert "REGRESSED" in captured.out


def test_clean_report_passes_compare_only(scaling_outcome, tmp_path, capsys):
    report, _ = scaling_outcome
    clean_path = tmp_path / "clean.json"
    clean_path.write_text(json.dumps(report), encoding="utf-8")
    code = main(
        ["bench", str(SCALING_CONFIG), "--compare-only", str(clean_path)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "CLEAN" in captured.out


def test_cli_smoke_run_writes_both_reports(tmp_path, capsys):
    """One CLI invocation produces the JSON and markdown artifacts."""
    output = tmp_path / "report.json"
    markdown = tmp_path / "report.md"
    code = main(
        [
            "bench", str(CI_SMOKE_CONFIG),
            "--smoke-profiles", "120",
            "--output", str(output),
            "--markdown", str(markdown),
        ]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["benchmark"] == "experiment_engine"
    assert report["smoke_profiles"] == 120
    # Smoke runs skip comparison by default: tiny-scale numbers are not
    # comparable to the committed full-scale baseline.
    assert report["comparison"] is None
    assert report["equivalence"]["all_equivalent"] is True
    rendered = markdown.read_text(encoding="utf-8")
    assert rendered.startswith("# ")
    for cell in report["cells"]:
        assert cell["id"] in rendered


def test_missing_metric_in_current_report_is_a_failure(tmp_path, capsys):
    """Deleting a gated metric from the run is itself a regression."""
    config = load_config(SCALING_CONFIG)
    report, _ = run_experiment(
        config, config_path=SCALING_CONFIG, compare=False
    )
    for cell in report["cells"]:
        if cell["id"] == "ar1/chi_h/vectorized":
            del cell["stages"]["meta-blocking"]
    mutated_path = tmp_path / "mutated.json"
    mutated_path.write_text(json.dumps(report), encoding="utf-8")
    code = main(
        ["bench", str(SCALING_CONFIG), "--compare-only", str(mutated_path)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "MISSING  ar1/chi_h/vectorized:meta-blocking.blocks_out" in (
        captured.out
    )


def _compare_doctored_ci_smoke(tmp_path, capsys, doctor) -> tuple[int, str]:
    """``--compare-only`` of a doctored copy of the ci_smoke baseline."""
    report = json.loads(CI_SMOKE_BASELINE.read_text(encoding="utf-8"))
    doctor(report)
    doctored = tmp_path / "doctored.json"
    doctored.write_text(json.dumps(report), encoding="utf-8")
    code = main(
        ["bench", str(CI_SMOKE_CONFIG), "--compare-only", str(doctored)]
    )
    return code, capsys.readouterr().out


def test_ci_smoke_self_comparison_gates_every_cell(tmp_path, capsys):
    code, out = _compare_doctored_ci_smoke(tmp_path, capsys, lambda r: None)
    assert code == 0
    # 8 cells x (5 quality + profiles + digest + 4 stages x 2 counts).
    assert "CLEAN (120 metrics)" in out


def _drop_first_cell(report):
    del report["cells"][0]


def _bump_stage_count(report):
    report["cells"][0]["stages"]["block-filtering"]["comparisons_out"] += 1


def _scramble_digest(report):
    report["cells"][0]["pairs_digest"] = "0" * 64


@pytest.mark.parametrize("doctor, verdict", [
    (_drop_first_cell, "MISSING  ar1/chi_h/vectorized:pc"),
    (_bump_stage_count,
     "REGRESSION  ar1/chi_h/vectorized:block-filtering.comparisons_out"),
    (_scramble_digest, "REGRESSION  ar1/chi_h/vectorized:pairs_digest"),
], ids=["dropped-cell", "stage-count", "pairs-digest"])
def test_doctored_report_fails_comparison(tmp_path, capsys, doctor, verdict):
    """A dropped cell, a changed stage count or digest fails, named."""
    code, out = _compare_doctored_ci_smoke(tmp_path, capsys, doctor)
    assert code == 1
    assert verdict in out
    assert "REGRESSED" in out


@pytest.fixture(scope="module")
def paper_table_outcome():
    """One small grid exercising every report field a paper table reads."""
    config = ExperimentConfig.from_mapping({
        "name": "paper-fields",
        "datasets": [
            {"name": "ar1", "profiles": 300},
            {"name": "cora", "kind": "dirty", "scale": 0.1},
        ],
        "pipelines": [
            {"label": "sup", "blocker": "token", "pruning": "supervised"},
            {"label": "purged", "blocker": "token",
             "config": {"filtering_ratio": 1.0}},
        ],
    })
    report, _ = run_experiment(config, compare=False)
    cells = {cell["id"]: cell for cell in report["cells"]}
    return config, report, cells


def _quality_record(quality) -> dict:
    return {
        "pair_completeness": quality.pair_completeness,
        "pair_quality": quality.pair_quality,
        "f1": quality.f1,
        "detected_duplicates": quality.detected_duplicates,
        "total_duplicates": quality.total_duplicates,
        "comparisons": quality.comparisons,
        "num_blocks": quality.num_blocks,
    }


def test_supervised_cell_retains_the_comparators_pairs(paper_table_outcome):
    config, _, cells = paper_table_outcome
    dataset = DatasetCache().load(config.datasets[0], default_seed=42)
    blocks = prepare_blocks(dataset)
    expected = SupervisedMetaBlocking(seed=42).run(blocks, dataset)
    cell = cells["ar1/sup/vectorized"]
    assert cell["pairs_digest"] == pairs_digest(expected.iter_distinct_pairs())
    assert cell["quality"] == _quality_record(evaluate_blocks(expected, dataset))
    assert cell["input_quality"] == _quality_record(
        evaluate_blocks(blocks, dataset)
    )


def test_unfiltered_input_quality_is_the_purged_collection(paper_table_outcome):
    config, _, cells = paper_table_outcome
    for spec in config.datasets:
        dataset = DatasetCache().load(spec, default_seed=42)
        purged = block_purging(
            TokenBlocking().build(dataset), dataset.num_profiles
        )
        assert cells[f"{spec.display_label}/purged/vectorized"][
            "input_quality"
        ] == _quality_record(evaluate_blocks(purged, dataset))


def test_datasets_carry_table2_characteristics(paper_table_outcome):
    config, report, _ = paper_table_outcome
    clean, dirty = report["datasets"]
    dataset = DatasetCache().load(config.datasets[0], default_seed=42)
    assert clean["characteristics"] == asdict(dataset_characteristics(dataset))
    assert clean["profiles"] == dataset.num_profiles
    assert dirty["characteristics"] is None
