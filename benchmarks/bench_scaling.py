#!/usr/bin/env python
"""Scaling benchmark: python vs vectorized vs parallel meta-blocking.

Builds a synthetic clean-clean workload (~10k profiles by default),
prepares the blocking-graph input once (token blocking -> purging ->
filtering), then times the full meta-blocking hot path — graph
materialization, edge weighting, pruning, block rebuild — under the
registered backends and verifies they retain the identical edge set.

A dedicated section times the sharded ``parallel`` backend against the
serial vectorized baseline (same workload, CHI_H weighting) across
worker counts, plus the ``workers=1`` chunked low-memory mode, and
records the serial-vs-parallel speedup.

Results are appended per weighting scheme and written as JSON (default:
``BENCH_metablocking.json`` at the repository root), so the speedup is a
recorded, regression-checkable artifact::

    PYTHONPATH=src python benchmarks/bench_scaling.py            # full run
    PYTHONPATH=src python benchmarks/bench_scaling.py --smoke    # CI-sized

Not a pytest module — run it as a script (the pytest-benchmark suite for
the paper's tables lives in the ``bench_table*.py`` files).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.blocking.base import BlockCollection  # noqa: E402
from repro.core import prepare_blocks  # noqa: E402
from repro.core.registry import BACKENDS  # noqa: E402
from repro.datasets import load_clean_clean  # noqa: E402
from repro.experiments.runutils import (  # noqa: E402
    scale_for_profiles,
    write_json_report,
)
from repro.graph import MetaBlocker, WeightingScheme  # noqa: E402
from repro.graph.pruning import BlastPruning  # noqa: E402


def build_workload(profiles: int, seed: int) -> tuple[BlockCollection, int]:
    """A prepared (purged + filtered) token-blocking collection + its size."""
    scale = scale_for_profiles("ar1", profiles)
    dataset = load_clean_clean("ar1", scale=scale, seed=seed)
    return prepare_blocks(dataset), dataset.num_profiles


def time_backend(
    backend: str,
    blocks: BlockCollection,
    scheme: WeightingScheme,
    repeats: int,
    backend_options: dict | None = None,
) -> tuple[float, BlockCollection]:
    """Best-of-*repeats* wall-clock seconds for one full meta-blocking run."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        # Cold start for every repetition: drop the CSR entity-index
        # cache so a Block-born collection is lowered again inside the
        # timing, mirroring the python path rebuilding its dict graph
        # from scratch each time.  (An index-born collection — what
        # block_filtering returns — has nothing to lower: the pop just
        # re-reads the index it holds.)
        blocks.__dict__.pop("entity_index", None)
        meta = MetaBlocker(
            weighting=scheme,
            pruning=BlastPruning(),
            backend=backend,
            backend_options=dict(backend_options or {}),
        )
        start = time.perf_counter()
        out = meta.run(blocks)
        best = min(best, time.perf_counter() - start)
    return best, out


def run_parallel_scaling(
    args: argparse.Namespace, blocks: BlockCollection
) -> dict:
    """Serial-vectorized vs sharded-parallel, across worker counts."""
    scheme = WeightingScheme.CHI_H
    serial_seconds, serial_out = time_backend(
        "vectorized", blocks, scheme, args.repeats
    )
    serial_pairs = serial_out.distinct_pairs()
    max_workers = (
        args.workers if args.workers is not None else os.cpu_count() or 1
    )
    worker_counts = sorted({1, 2, 4, max_workers} & set(range(1, max_workers + 1)))

    print(
        f"parallel backend scaling (chi_h, serial vectorized "
        f"{serial_seconds:.3f}s baseline) ..."
    )
    runs = []
    for workers in worker_counts:
        seconds, out = time_backend(
            "parallel", blocks, scheme, args.repeats,
            backend_options={"workers": workers},
        )
        equivalent = out.distinct_pairs() == serial_pairs
        speedup = serial_seconds / seconds if seconds > 0 else float("inf")
        runs.append(
            {
                "workers": workers,
                "seconds": round(seconds, 6),
                "speedup_vs_vectorized": round(speedup, 2),
                "equivalent": equivalent,
            }
        )
        print(
            f"  workers={workers:>2}: {seconds:8.3f}s ({speedup:5.2f}x) | "
            f"{'OK' if equivalent else 'MISMATCH'}"
        )

    # The chunked low-memory mode: sequential shards, capped pair arrays.
    chunk_cap = max(10_000, blocks.count_distinct_pairs() // 8)
    chunked_seconds, chunked_out = time_backend(
        "parallel", blocks, scheme, args.repeats,
        backend_options={"workers": 1, "shard_size": chunk_cap},
    )
    chunked_equivalent = chunked_out.distinct_pairs() == serial_pairs
    print(
        f"  chunked (workers=1, shard_size={chunk_cap}): "
        f"{chunked_seconds:8.3f}s | "
        f"{'OK' if chunked_equivalent else 'MISMATCH'}"
    )
    best = max(runs, key=lambda r: r["speedup_vs_vectorized"])
    return {
        "scheme": scheme.value,
        "pruning": "blast",
        "vectorized_seconds": round(serial_seconds, 6),
        "runs": runs,
        "chunked": {
            "shard_size": chunk_cap,
            "seconds": round(chunked_seconds, 6),
            "equivalent": chunked_equivalent,
        },
        "best_speedup": best["speedup_vs_vectorized"],
        "best_workers": best["workers"],
        "all_equivalent": chunked_equivalent
        and all(r["equivalent"] for r in runs),
    }


def run_large_tier(args: argparse.Namespace) -> dict:
    """The ≥100k-profile tier: worker-pool scaling at a scale where pool
    startup and the merge actually register — per-worker-count pool
    timings against the serial vectorized baseline."""
    print(f"large tier (~{args.large_profiles} profiles) ...")
    blocks, num_profiles = build_workload(args.large_profiles, args.seed)
    scaling = run_parallel_scaling(args, blocks)
    return {
        "profiles": num_profiles,
        "parallel_scaling": scaling,
        "all_equivalent": scaling["all_equivalent"],
    }


def run(args: argparse.Namespace) -> dict:
    profiles = 1_500 if args.smoke else args.profiles
    print(f"building workload (~{profiles} profiles, seed={args.seed}) ...")
    blocks, num_profiles = build_workload(profiles, args.seed)
    print(
        f"  {len(blocks)} blocks, {blocks.aggregate_cardinality:,} "
        f"comparisons, {blocks.num_indexed_profiles} indexed profiles"
    )

    schemes = [WeightingScheme(name) for name in args.schemes.split(",")]
    runs = []
    for scheme in schemes:
        py_seconds, py_blocks = time_backend(
            "python", blocks, scheme, args.repeats
        )
        vec_seconds, vec_blocks = time_backend(
            "vectorized", blocks, scheme, args.repeats
        )
        equivalent = py_blocks.distinct_pairs() == vec_blocks.distinct_pairs()
        speedup = py_seconds / vec_seconds if vec_seconds > 0 else float("inf")
        runs.append(
            {
                "scheme": scheme.value,
                "pruning": "blast",
                "python_seconds": round(py_seconds, 6),
                "vectorized_seconds": round(vec_seconds, 6),
                "speedup": round(speedup, 2),
                "retained_edges": len(vec_blocks),
                "equivalent": equivalent,
            }
        )
        print(
            f"  {scheme.value:>6}: python {py_seconds:8.3f}s | vectorized "
            f"{vec_seconds:8.3f}s | {speedup:6.1f}x | "
            f"{'OK' if equivalent else 'MISMATCH'}"
        )

    parallel = run_parallel_scaling(args, blocks)
    large_tier = run_large_tier(args) if args.large_tier else None

    speedups = [r["speedup"] for r in runs]
    report = {
        "benchmark": "metablocking_backend_scaling",
        "workload": "ar1-synthetic/token-blocking/purged+filtered",
        "smoke": bool(args.smoke),
        "profiles": num_profiles,
        "blocks": len(blocks),
        "aggregate_comparisons": blocks.aggregate_cardinality,
        "distinct_pairs": blocks.count_distinct_pairs(),
        "repeats": args.repeats,
        "seed": args.seed,
        "backends": list(BACKENDS.names()),
        "runs": runs,
        "parallel_scaling": parallel,
        "large_tier": large_tier,
        "speedup_min": min(speedups),
        "speedup_max": max(speedups),
        "all_equivalent": all(r["equivalent"] for r in runs)
        and parallel["all_equivalent"]
        and (large_tier is None or large_tier["all_equivalent"]),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profiles", type=int, default=10_000,
                        help="approximate workload size (default: %(default)s)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized workload (~1.5k profiles)")
    parser.add_argument("--schemes", default="chi_h,cbs,js,ecbs,ejs,arcs",
                        help="comma-separated weighting schemes to time")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repetitions per backend; best time wins")
    parser.add_argument("--workers", type=int, default=None,
                        help="max worker count of the parallel-scaling "
                             "section (default: the machine's cpu count)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--large-tier", action="store_true",
                        help="also run the worker-pool scaling section "
                             "at --large-profiles scale")
    parser.add_argument("--large-profiles", type=int, default=100_000,
                        help="workload size of the large tier "
                             "(default: %(default)s)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_metablocking.json",
                        help="JSON report path (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="exit non-zero if any scheme speeds up less")
    parser.add_argument("--min-parallel-speedup", type=float, default=None,
                        help="exit non-zero if the best parallel-backend "
                             "speedup over serial vectorized is below this")
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be positive, got {args.workers}")

    report = run(args)
    write_json_report(args.output, report)
    print(f"wrote {args.output}")

    if not report["all_equivalent"]:
        print("error: backends disagree on the retained edge set",
              file=sys.stderr)
        return 1
    if args.min_speedup is not None and report["speedup_min"] < args.min_speedup:
        print(f"error: speedup {report['speedup_min']}x below the "
              f"{args.min_speedup}x floor", file=sys.stderr)
        return 1
    parallel_speedup = report["parallel_scaling"]["best_speedup"]
    if report["large_tier"] is not None:
        parallel_speedup = max(
            parallel_speedup,
            report["large_tier"]["parallel_scaling"]["best_speedup"],
        )
    if args.min_parallel_speedup is not None:
        if (os.cpu_count() or 1) <= 1:
            # One core cannot demonstrate parallel speedup; bit-identity
            # (all_equivalent, checked above) is still enforced.
            print(
                "note: --min-parallel-speedup gate skipped on a "
                "single-CPU machine"
            )
        elif parallel_speedup < args.min_parallel_speedup:
            print(f"error: parallel speedup {parallel_speedup}x below the "
                  f"{args.min_parallel_speedup}x floor", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
