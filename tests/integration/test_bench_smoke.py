"""Benchmark bit-rot guard: the bench scripts stay importable and runnable.

The ``benchmarks/`` scripts are not collected by pytest (they are either
standalone scripts or pytest-benchmark suites run on demand), so an API
change could silently break them until the next bench session.  This
module imports every one of them, and drives the two standalone scripts
(``bench_scaling``, ``bench_streaming``) plus the shared ``harness``
helpers end-to-end at tiny scale.  The committed experiment-engine
configs under ``benchmarks/configs/`` (and the examples walkthrough) get
the same treatment: each one is loaded and executed with a smoke cap.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments import load_config, run_experiment

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = REPO_ROOT / "benchmarks"
BENCH_MODULES = sorted(path.stem for path in BENCH_DIR.glob("bench_*.py"))

#: Every committed experiment config must stay loadable and runnable at
#: tiny scale — the declarative analogue of the script import guard.
CONFIG_PATHS = sorted((BENCH_DIR / "configs").glob("*.toml")) + [
    REPO_ROOT / "examples" / "experiment_config.toml"
]

_HAS_TOML = (
    importlib.util.find_spec("tomllib") is not None
    or importlib.util.find_spec("tomli") is not None
)


@pytest.fixture(autouse=True)
def _bench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))


@pytest.mark.parametrize("name", BENCH_MODULES + ["harness"])
def test_bench_module_imports(name):
    module = importlib.import_module(name)
    assert module.__file__ is not None


def test_bench_scaling_runs_at_tiny_scale(tmp_path, capsys):
    bench_scaling = importlib.import_module("bench_scaling")
    output = tmp_path / "bench.json"
    code = bench_scaling.main(
        ["--profiles", "250", "--repeats", "1", "--schemes", "cbs",
         "--workers", "2", "--output", str(output)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["all_equivalent"] is True
    assert report["runs"][0]["scheme"] == "cbs"
    scaling = report["parallel_scaling"]
    assert scaling["all_equivalent"] is True
    assert {run["workers"] for run in scaling["runs"]} >= {1, 2}
    assert scaling["chunked"]["equivalent"] is True


def test_bench_scaling_speedup_floor_enforced(tmp_path, capsys, monkeypatch):
    import os

    bench_scaling = importlib.import_module("bench_scaling")
    # The floor only applies on multicore machines; pretend to be one so
    # the gate is exercised regardless of the CI box's core count.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = bench_scaling.main(
        ["--profiles", "250", "--repeats", "1", "--schemes", "cbs",
         "--workers", "1", "--output", str(tmp_path / "bench.json"),
         # An absurd floor no machine meets: the gate must trip.
         "--min-parallel-speedup", "1e9"]
    )
    capsys.readouterr()
    assert code == 1


def test_bench_scaling_speedup_floor_skipped_on_one_cpu(
    tmp_path, capsys, monkeypatch
):
    import os

    bench_scaling = importlib.import_module("bench_scaling")
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    code = bench_scaling.main(
        ["--profiles", "250", "--repeats", "1", "--schemes", "cbs",
         "--workers", "1", "--output", str(tmp_path / "bench.json"),
         "--min-parallel-speedup", "1e9"]
    )
    out = capsys.readouterr().out
    # Bit-identity is still asserted (exit 0 requires all_equivalent);
    # only the speedup floor is waived.
    assert code == 0
    assert "single-CPU" in out


def test_bench_scaling_large_tier_at_tiny_scale(tmp_path, capsys):
    bench_scaling = importlib.import_module("bench_scaling")
    output = tmp_path / "bench.json"
    code = bench_scaling.main(
        ["--profiles", "250", "--repeats", "1", "--schemes", "cbs",
         "--workers", "1", "--large-tier", "--large-profiles", "300",
         "--output", str(output)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    tier = report["large_tier"]
    assert tier["parallel_scaling"]["all_equivalent"] is True


def test_bench_streaming_runs_at_tiny_scale(tmp_path, capsys):
    bench_streaming = importlib.import_module("bench_streaming")
    output = tmp_path / "bench.json"
    code = bench_streaming.main(
        ["--profiles", "150", "--output", str(output)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["profiles"] > 0


@pytest.mark.skipif(not _HAS_TOML, reason="no TOML parser available")
@pytest.mark.parametrize(
    "config_path", CONFIG_PATHS, ids=lambda path: path.stem
)
def test_every_committed_config_runs_at_tiny_scale(config_path):
    """Drive the experiment engine over each config with a smoke cap.

    Comparison is disabled (tiny-scale numbers are not comparable to the
    full-scale baselines); the point is that the config parses, every
    cell executes, and cross-backend cells stay bit-identical.
    """
    assert config_path.exists(), config_path
    config = load_config(config_path)
    report, comparison = run_experiment(
        config, config_path=config_path, smoke_profiles=120, compare=False
    )
    assert comparison is None
    assert report["cells"], f"{config_path.stem}: no cells produced"
    for cell in report["cells"]:
        assert cell["quality"]["comparisons"] >= 0
        assert cell["perf"]["wall_seconds"] >= 0.0
    assert report["equivalence"]["all_equivalent"] is True


def test_harness_helpers_at_tiny_scale():
    harness = importlib.import_module("harness")
    from repro.graph.pruning import WeightNodePruning

    dataset = harness.clean_dataset("ar1", scale=0.05)
    blocks = harness.blocks_T("ar1", scale=0.05)
    assert len(blocks) > 0
    row = harness.traditional_mb_row(
        "smoke", blocks, dataset, lambda: WeightNodePruning()
    )
    assert "smoke" in row.formatted()
    assert 0.0 <= row.quality.pair_completeness <= 1.0
