"""Golden-file regression tests for the experiment-engine reporters.

The JSON report is the artifact CI uploads and the comparator consumes;
the markdown table is what lands in PR summaries.  Any drift in either
format (field names, schema version, table columns, verdict wording)
must fail loudly against the committed fixtures under
``tests/integration/goldens/``.

Timings and memory are machine-dependent, so fixtures are rendered from
a :func:`scrub_nondeterministic` copy of the report (all ``seconds``/
``peak_rss_mb`` fields zeroed); everything else — quality numbers, stage
counts, pair digests, comparison verdicts — is deterministic at a fixed
seed and is compared byte-for-byte.

Refresh after an intentional format change with::

    PYTHONPATH=src python -m pytest \
        tests/integration/test_experiment_goldens.py --update-goldens
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENT_SCHEMA_VERSION,
    ExperimentConfig,
    MetricSpec,
    REPORTERS,
    Tolerance,
    compare_reports,
    run_experiment,
    scrub_nondeterministic,
)

from test_cli_goldens import check_golden

pytestmark = pytest.mark.skipif(
    importlib.util.find_spec("tomllib") is None
    and importlib.util.find_spec("tomli") is None,
    reason="no TOML parser available",
)

#: Small but non-trivial: two pipelines over a tiny ar1 slice, two
#: backends so the equivalence section has something to say.
_GOLDEN_CONFIG = {
    "name": "golden",
    "description": "fixture workload for reporter goldens",
    "seed": 42,
    "datasets": [{"name": "ar1", "profiles": 300}],
    "pipelines": [
        {"label": "blast", "blocker": "token", "weighting": "chi_h",
         "pruning": "blast"},
        {"label": "cbs", "blocker": "token", "weighting": "cbs",
         "pruning": "blast"},
    ],
    "backends": ["vectorized", "python"],
}


@pytest.fixture(scope="module")
def golden_report() -> dict:
    config = ExperimentConfig.from_mapping(_GOLDEN_CONFIG)
    report, _ = run_experiment(config, compare=False)
    report = scrub_nondeterministic(report)
    # Attach a deterministic self-comparison so the fixtures also pin the
    # comparison table/JSON shape (a real baseline path would leak the
    # machine's filesystem into the fixture).
    specs = [
        MetricSpec(
            name=f"{cell['id']}:f1",
            path=f"cells[id={cell['id']}].quality.f1",
            direction="higher",
            tolerance=Tolerance(relative=1e-9),
        )
        for cell in report["cells"]
    ]
    comparison = compare_reports(report, report, specs, baseline_source="self")
    report["comparison"] = comparison.to_dict()
    return report


def test_json_reporter_golden(golden_report, update_goldens):
    rendered = REPORTERS.get("json")(golden_report)
    check_golden("experiment_report.json", rendered, update_goldens)


def test_markdown_reporter_golden(golden_report, update_goldens):
    rendered = REPORTERS.get("markdown")(golden_report)
    check_golden("experiment_report.md", rendered, update_goldens)


def test_json_schema_pin(golden_report):
    """The report's schema version and top-level key set are a contract.

    Bumping ``EXPERIMENT_SCHEMA_VERSION`` is the deliberate act that
    accompanies any shape change; this test makes forgetting it loud.
    """
    rendered = REPORTERS.get("json")(golden_report)
    report = json.loads(rendered)
    assert report["schema_version"] == EXPERIMENT_SCHEMA_VERSION == 1
    assert set(report) == {
        "schema_version",
        "benchmark",
        "name",
        "description",
        "seed",
        "repeats",
        "smoke_profiles",
        "datasets",
        "cells",
        "equivalence",
        "comparison",
    }
    for dataset in report["datasets"]:
        assert set(dataset) == {
            "label", "name", "kind", "scale", "profiles", "characteristics",
        }
    for cell in report["cells"]:
        assert set(cell) == {
            "id", "dataset", "pipeline", "backend", "workers", "repeats",
            "profiles", "quality", "input_quality", "stages", "perf",
            "pairs_digest",
        }
        for quality in (cell["quality"], cell["input_quality"]):
            assert set(quality) == {
                "pair_completeness", "pair_quality", "f1",
                "detected_duplicates", "total_duplicates", "comparisons",
                "num_blocks",
            }
        assert set(cell["perf"]) == {
            "wall_seconds", "wall_seconds_mean", "cpu_seconds",
            "minor_faults", "peak_rss_mb",
        }


def test_goldens_are_committed_and_current(golden_report):
    """Both fixtures exist on disk (guards a forgotten --update-goldens)."""
    golden_dir = Path(__file__).parent / "goldens"
    for name in ("experiment_report.json", "experiment_report.md"):
        assert (golden_dir / name).exists(), (
            f"{name} missing; run pytest --update-goldens and commit it"
        )
