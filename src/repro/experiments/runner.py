"""Grid expansion and per-cell execution of the experiment engine.

A *cell* is one point of the ``datasets x pipelines x backends x
workers`` grid.  :func:`expand_grid` enumerates the cells an
:class:`~repro.experiments.config.ExperimentConfig` describes (worker
counts expand only for backends that take a ``workers`` knob);
:func:`run_cell` executes one cell and measures it — quality (PC/PQ/F1),
per-stage block/comparison counts, wall/CPU time, peak RSS and the
retained-pair digest that backs the cross-backend equivalence check.

``run_cell_subprocess`` reruns a cell in a fresh interpreter (via the
``repro bench --cell-probe`` hook) so its peak-RSS number is the cell's
own high-water mark rather than the engine process's lifetime maximum.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.core.config import SERIAL_BACKENDS
from repro.core.registry import build_pipeline
from repro.experiments.runutils import (
    pairs_digest,
    peak_rss_mb,
    process_usage,
)

if TYPE_CHECKING:
    from repro.data.dataset import ERDataset
    from repro.experiments.config import DatasetSpec, ExperimentConfig, PipelineSpec
    from repro.metrics.quality import BlockingQuality

__all__ = [
    "Cell",
    "DatasetCache",
    "expand_grid",
    "run_cell",
    "run_cell_subprocess",
]


@dataclass(frozen=True)
class Cell:
    """One grid point: a dataset, a pipeline, and an execution backend."""

    dataset: "DatasetSpec"
    pipeline: "PipelineSpec"
    backend: str
    workers: int | None = None

    @property
    def id(self) -> str:
        """Stable identifier used in reports, metric paths and probes."""
        base = (
            f"{self.dataset.display_label}/{self.pipeline.label}/{self.backend}"
        )
        if self.workers is not None:
            return f"{base}/w{self.workers}"
        return base


def expand_grid(config: "ExperimentConfig") -> tuple[Cell, ...]:
    """Every cell of *config*'s grid, in deterministic config order.

    Worker counts multiply only the backends that accept them; a serial
    backend contributes exactly one cell per (dataset, pipeline) no
    matter how many worker counts the grid lists.
    """
    cells: list[Cell] = []
    seen: set[str] = set()
    for dataset in config.datasets:
        for pipeline in config.pipelines:
            for backend in config.backends:
                counts: tuple[int | None, ...]
                if backend in SERIAL_BACKENDS:
                    counts = (None,)
                else:
                    counts = config.workers
                for workers in counts:
                    cell = Cell(dataset, pipeline, backend, workers)
                    if cell.id not in seen:
                        seen.add(cell.id)
                        cells.append(cell)
    return tuple(cells)


class DatasetCache:
    """Generate each (name, kind, scale, seed, num_rare) workload at most once."""

    def __init__(self) -> None:
        self._cache: dict[
            tuple[str, str, float, int, int | None], "ERDataset"
        ] = {}

    def load(self, spec: "DatasetSpec", *, default_seed: int,
             smoke_profiles: int | None = None) -> "ERDataset":
        from repro.datasets import load_clean_clean, load_dirty
        from repro.datasets.benchmarks import load_dbp_wide

        seed = spec.seed if spec.seed is not None else default_seed
        scale = spec.effective_scale(smoke_profiles)
        key = (spec.name, spec.kind, scale, seed, spec.num_rare)
        if key not in self._cache:
            if spec.num_rare is not None:
                dataset = load_dbp_wide(spec.num_rare, scale=scale, seed=seed)
            elif spec.kind == "clean":
                dataset = load_clean_clean(spec.name, scale=scale, seed=seed)
            else:
                dataset = load_dirty(spec.name, scale=scale, seed=seed)
            # Tokenize once here, so no cell's timed region builds the
            # corpus its dataset's first cell would otherwise pay for.
            dataset.corpus  # noqa: B018
            self._cache[key] = dataset
        return self._cache[key]


def _quality_record(quality: "BlockingQuality") -> dict[str, Any]:
    return {
        "pair_completeness": quality.pair_completeness,
        "pair_quality": quality.pair_quality,
        "f1": quality.f1,
        "detected_duplicates": quality.detected_duplicates,
        "total_duplicates": quality.total_duplicates,
        "comparisons": quality.comparisons,
        "num_blocks": quality.num_blocks,
    }


def run_cell(
    cell: Cell,
    *,
    seed: int,
    repeats: int = 1,
    smoke_profiles: int | None = None,
    cache: DatasetCache | None = None,
) -> dict[str, Any]:
    """Execute one cell and measure it; the engine's unit of work.

    The pipeline runs *repeats* times on the same generated dataset;
    ``perf.wall_seconds`` is the best run, ``wall_seconds_mean`` the
    average, and ``cpu_seconds`` / ``minor_faults`` the CPU and
    ``ru_minflt`` deltas of the best run.  ``quality`` scores the final
    blocks; ``input_quality`` the collection meta-blocking consumed (purged
    and filtered; with ``filtering_ratio = 1.0`` purged only).  Both are
    computed outside the timed region.  Everything outside ``perf`` is
    deterministic under a fixed seed.
    """
    from repro.metrics.quality import evaluate_blocks

    cache = cache if cache is not None else DatasetCache()
    dataset = cache.load(cell.dataset, default_seed=seed,
                         smoke_profiles=smoke_profiles)
    blast_config = cell.pipeline.blast_config(cell.backend, cell.workers, seed)
    pipeline = build_pipeline(
        blast_config,
        blocker=cell.pipeline.blocker,
        weighting=cell.pipeline.weighting,
        pruning=cell.pipeline.pruning,
    )

    best_wall = float("inf")
    best_cpu, best_faults = 0.0, 0
    walls: list[float] = []
    result = None
    for _ in range(repeats):
        cpu_before, faults_before = process_usage()
        start = time.perf_counter()
        result = pipeline.run(dataset)
        wall = time.perf_counter() - start
        cpu, faults = process_usage()
        walls.append(wall)
        if wall < best_wall:
            best_wall = wall
            best_cpu, best_faults = cpu - cpu_before, faults - faults_before
    assert result is not None  # repeats >= 1 is validated at config load

    stages = {
        report.stage: {
            "seconds": report.seconds,
            "blocks_out": report.blocks_out,
            "comparisons_out": report.comparisons_out,
        }
        for report in result.stage_reports
    }
    return {
        "id": cell.id,
        "dataset": cell.dataset.display_label,
        "pipeline": cell.pipeline.label,
        "backend": cell.backend,
        "workers": cell.workers,
        "repeats": repeats,
        "profiles": dataset.num_profiles,
        "quality": _quality_record(evaluate_blocks(result.blocks, dataset)),
        "input_quality": _quality_record(
            evaluate_blocks(result.initial_blocks, dataset)
        ),
        "stages": stages,
        "perf": {
            "wall_seconds": best_wall,
            "wall_seconds_mean": statistics.fmean(walls),
            "cpu_seconds": best_cpu,
            "minor_faults": best_faults,
            "peak_rss_mb": peak_rss_mb(),
        },
        "pairs_digest": pairs_digest(result.blocks.iter_distinct_pairs()),
    }


def run_cell_subprocess(
    cell_id: str,
    config_path: Path,
    *,
    repeats: int,
    smoke_profiles: int | None = None,
) -> dict[str, Any]:
    """Rerun one cell in a fresh interpreter and return its measurement.

    Reinvokes ``repro bench <config> --cell-probe <id>`` so ``ru_maxrss``
    is the probe's own peak.  The probe prints exactly one JSON object on
    stdout.
    """
    import os

    import repro

    command = [
        sys.executable, "-m", "repro", "bench", str(config_path),
        "--cell-probe", cell_id, "--repeats", str(repeats),
    ]
    if smoke_profiles is not None:
        command += ["--smoke-profiles", str(smoke_profiles)]
    env = dict(os.environ)
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        command, capture_output=True, text=True, env=env, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"cell probe {cell_id!r} failed (exit {completed.returncode}):\n"
            f"{completed.stderr.strip()}"
        )
    try:
        return json.loads(completed.stdout)
    except json.JSONDecodeError as exc:
        raise RuntimeError(
            f"cell probe {cell_id!r} printed invalid JSON: "
            f"{completed.stdout[:200]!r}"
        ) from exc
