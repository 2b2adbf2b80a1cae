"""Benchmark bit-rot guard: the bench scripts stay importable and runnable.

The paper-table scripts under ``benchmarks/`` are pytest-benchmark
suites run on demand, not collected by tier-1, so an API change could
silently break them until the next bench session.  This module imports
every one of them and drives the shared ``harness`` helpers at tiny
scale.  The committed experiment-engine configs under
``benchmarks/configs/`` (and the examples walkthrough) get the same
treatment: each one is loaded and executed with a smoke cap.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.experiments import load_config, run_experiment

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"
SCRIPT_MODULES = sorted(path.stem for path in BENCHMARKS_DIR.glob("bench_*.py"))

#: Every committed experiment config must stay loadable and runnable at
#: tiny scale — the declarative analogue of the script import guard.
CONFIG_PATHS = sorted((BENCHMARKS_DIR / "configs").glob("*.toml")) + [
    REPO_ROOT / "examples" / "experiment_config.toml"
]

_HAS_TOML = (
    importlib.util.find_spec("tomllib") is not None
    or importlib.util.find_spec("tomli") is not None
)


@pytest.fixture(autouse=True)
def _bench_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS_DIR))


@pytest.mark.parametrize("name", SCRIPT_MODULES + ["harness"])
def test_bench_module_imports(name):
    module = importlib.import_module(name)
    assert module.__file__ is not None


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
