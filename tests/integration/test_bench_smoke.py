"""Benchmark bit-rot guard: every committed experiment config stays runnable.

The paper's tables and figures are experiment-engine configs under
``benchmarks/configs/``, run on demand at full scale, not by tier-1, so
an API change could silently break one until the next bench session.
This module loads each of them (and the examples walkthrough config) and
executes it with a smoke cap.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.experiments import load_config, run_experiment

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCHMARKS_DIR = REPO_ROOT / "benchmarks"

#: Every committed experiment config must stay loadable and runnable at
#: tiny scale.
CONFIG_PATHS = sorted((BENCHMARKS_DIR / "configs").glob("*.toml")) + [
    REPO_ROOT / "examples" / "experiment_config.toml"
]

_HAS_TOML = (
    importlib.util.find_spec("tomllib") is not None
    or importlib.util.find_spec("tomli") is not None
)


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

