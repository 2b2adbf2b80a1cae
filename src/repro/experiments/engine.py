"""The experiment engine: execute a config's grid, compare, report.

:func:`run_experiment` is the programmatic entry point; the same module
carries the ``repro bench`` CLI glue (:func:`configure_parser` /
:func:`execute`) in the style of :mod:`repro.analysis.cli`.

Engine reports are schema-versioned dicts (see
:data:`repro.experiments.reporters.EXPERIMENT_SCHEMA_VERSION`)::

    {schema_version, benchmark: "experiment_engine", name, description,
     seed, repeats, smoke_profiles, datasets: [...], cells: [...],
     equivalence: {groups, all_equivalent}, comparison: {...} | None}

The comparator section gates every cell of the run and of the baseline
engine report (:func:`cell_metric_specs`), so a cell that changed its
numbers or vanished from the run fails the comparison.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping, Sequence
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.datasets.benchmarks import dataset_characteristics
from repro.experiments.comparator import (
    Comparison,
    MetricSpec,
    Tolerance,
    compare_reports,
)
from repro.experiments.config import CompareSpec, ExperimentConfig, load_config
from repro.experiments.reporters import (
    EXPERIMENT_SCHEMA_VERSION,
    REPORTERS,
)
from repro.experiments.runner import (
    DatasetCache,
    expand_grid,
    run_cell,
    run_cell_subprocess,
)

__all__ = [
    "cell_metric_specs",
    "configure_parser",
    "execute",
    "resolve_baseline",
    "run_experiment",
]


def resolve_baseline(
    spec: CompareSpec, config_path: Path | None
) -> tuple[Path, dict[str, Any]]:
    """Locate and load the baseline document a compare section names.

    Relative baseline paths resolve against the config file's directory
    (so committed configs can say ``../baselines/ci_smoke.json``), or
    the working directory when the config did not come from a file.
    """
    baseline_path = Path(spec.baseline)
    if not baseline_path.is_absolute():
        root = config_path.parent if config_path is not None else Path(".")
        baseline_path = root / baseline_path
    if not baseline_path.exists():
        raise ValueError(f"baseline {baseline_path} does not exist")
    document = json.loads(baseline_path.read_text(encoding="utf-8"))
    if not isinstance(document, Mapping):
        raise ValueError(f"baseline {baseline_path} is not a JSON object")
    return baseline_path, dict(document)


#: The per-cell quality gates, as (metric suffix, quality field,
#: direction) rows.  PC/PQ/F1 may only fall by the allowance; the
#: comparison count may only grow by it; the retained block count must
#: match within it.
_CELL_GATES: tuple[tuple[str, str, str], ...] = (
    ("pc", "pair_completeness", "higher"),
    ("pq", "pair_quality", "higher"),
    ("f1", "f1", "higher"),
    ("comparisons", "comparisons", "lower"),
    ("blocks", "num_blocks", "match"),
)


def cell_metric_specs(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    tolerance: Tolerance,
) -> list[MetricSpec]:
    """Drift specs for every cell of *current* and *baseline* (engine reports).

    Besides the quality gates, each cell's ``profiles``, every stage's
    non-null ``blocks_out``/``comparisons_out`` and its ``pairs_digest``
    must match.  Specs come from the cells of both reports: a cell (or
    stage) only the baseline has resolves to ``missing`` and fails; one
    only the current report has is ``new``, which never fails.
    """
    specs: dict[str, MetricSpec] = {}

    def gate(cell_id: str, suffix: str, field: str, direction: str) -> None:
        name = f"{cell_id}:{suffix}"
        specs.setdefault(name, MetricSpec(
            name=name, path=f"cells[id={cell_id}].{field}",
            direction=direction, tolerance=tolerance,
        ))

    for report in (baseline, current):
        for cell in report.get("cells", []):
            cell_id = cell.get("id")
            if not cell_id:
                continue
            for suffix, field, direction in _CELL_GATES:
                gate(cell_id, suffix, f"quality.{field}", direction)
            gate(cell_id, "profiles", "profiles", "match")
            for stage, counts in cell.get("stages", {}).items():
                for field in ("blocks_out", "comparisons_out"):
                    if counts.get(field) is not None:
                        gate(cell_id, f"{stage}.{field}",
                             f"stages.{stage}.{field}", "match")
            gate(cell_id, "pairs_digest", "pairs_digest", "match")
    return list(specs.values())


def _comparison_for(
    report: Mapping[str, Any],
    spec: CompareSpec,
    config_path: Path | None,
) -> Comparison:
    baseline_path, baseline = resolve_baseline(spec, config_path)
    return compare_reports(
        report, baseline, cell_metric_specs(report, baseline, spec.tolerance),
        baseline_source=str(baseline_path),
    )


def _equivalence(cells: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Cross-backend equivalence: group cells by (dataset, pipeline).

    Every group that ran under more than one backend/worker setting must
    retain the identical pair set — the engine-level form of the
    bit-identical-backends invariant the unit suites assert.
    """
    by_group: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for cell in cells:
        by_group.setdefault((cell["dataset"], cell["pipeline"]), []).append(cell)
    groups = []
    for (dataset, pipeline), members in by_group.items():
        if len(members) < 2:
            continue
        digests = {member["pairs_digest"] for member in members}
        groups.append({
            "dataset": dataset,
            "pipeline": pipeline,
            "cells": [member["id"] for member in members],
            "equivalent": len(digests) == 1,
        })
    return {
        "groups": groups,
        "all_equivalent": all(group["equivalent"] for group in groups),
    }


def run_experiment(
    config: ExperimentConfig,
    *,
    config_path: Path | None = None,
    smoke_profiles: int | None = None,
    repeats: int | None = None,
    compare: bool = True,
) -> tuple[dict[str, Any], Comparison | None]:
    """Execute *config*'s grid; return (report, comparison or ``None``).

    ``smoke_profiles`` caps every dataset at roughly that many profiles
    (the bit-rot smoke mode); ``repeats`` overrides the config's repeat
    policy; ``compare=False`` skips the comparator even when the config
    has a compare section (smoke runs gate nothing — tiny-scale numbers
    are not comparable to committed full-scale history).
    """
    effective_repeats = repeats if repeats is not None else config.repeats
    cells = expand_grid(config)
    cache = DatasetCache()
    use_subprocess = config.monitor.subprocess and config_path is not None
    cell_rows: list[dict[str, Any]] = []
    for cell in cells:
        if use_subprocess:
            assert config_path is not None
            row = run_cell_subprocess(
                cell.id, config_path,
                repeats=effective_repeats, smoke_profiles=smoke_profiles,
            )
        else:
            row = run_cell(
                cell, seed=config.seed, repeats=effective_repeats,
                smoke_profiles=smoke_profiles, cache=cache,
            )
        cell_rows.append(row)

    datasets = []
    for spec in config.datasets:
        dataset = cache.load(spec, default_seed=config.seed,
                             smoke_profiles=smoke_profiles)
        datasets.append({
            "label": spec.display_label,
            "name": spec.name,
            "kind": spec.kind,
            "scale": spec.effective_scale(smoke_profiles),
            "profiles": dataset.num_profiles,
            "characteristics": (
                asdict(dataset_characteristics(dataset))
                if dataset.is_clean_clean else None
            ),
        })
    report: dict[str, Any] = {
        "schema_version": EXPERIMENT_SCHEMA_VERSION,
        "benchmark": "experiment_engine",
        "name": config.name,
        "description": config.description,
        "seed": config.seed,
        "repeats": effective_repeats,
        "smoke_profiles": smoke_profiles,
        "datasets": datasets,
        "cells": cell_rows,
        "equivalence": _equivalence(cell_rows),
        "comparison": None,
    }

    comparison: Comparison | None = None
    if compare and config.compare is not None:
        comparison = _comparison_for(report, config.compare, config_path)
        report["comparison"] = comparison.to_dict()
    return report, comparison


# --------------------------------------------------------------------------
# CLI glue (`repro bench`)
# --------------------------------------------------------------------------

def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "config", type=Path,
        help="experiment config file (.toml or .json); see "
             "examples/experiment_config.toml",
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the JSON engine report here",
    )
    parser.add_argument(
        "--markdown", type=Path, default=None,
        help="write the markdown summary here",
    )
    parser.add_argument(
        "--smoke-profiles", type=int, default=None,
        help="cap every dataset at roughly N profiles (smoke mode; "
             "implies --no-compare unless --compare is forced)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="override the config's repeat policy",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--no-compare", action="store_true",
        help="skip the regression comparator",
    )
    group.add_argument(
        "--compare", action="store_true", dest="force_compare",
        help="run the comparator even in smoke mode",
    )
    parser.add_argument(
        "--compare-only", type=Path, default=None, metavar="REPORT.json",
        help="skip execution: compare an existing engine report against "
             "the config's baseline and exit 0/1",
    )
    parser.add_argument(
        "--cell-probe", default=None, metavar="CELL_ID",
        help=argparse.SUPPRESS,  # internal: fresh-interpreter RSS probe
    )


def _execute_probe(config: ExperimentConfig, args: argparse.Namespace) -> int:
    wanted = {cell.id: cell for cell in expand_grid(config)}
    if args.cell_probe not in wanted:
        print(
            f"error: no cell {args.cell_probe!r} in this config; "
            f"cells: {', '.join(wanted)}",
            file=sys.stderr,
        )
        return 1
    row = run_cell(
        wanted[args.cell_probe],
        seed=config.seed,
        repeats=args.repeats if args.repeats is not None else config.repeats,
        smoke_profiles=args.smoke_profiles,
    )
    print(json.dumps(row))
    return 0


def execute(args: argparse.Namespace) -> int:
    """Run the ``repro bench`` subcommand; returns the exit code."""
    config = load_config(args.config)

    if args.cell_probe is not None:
        return _execute_probe(config, args)

    if args.compare_only is not None:
        if config.compare is None:
            print(
                f"error: {args.config} has no [compare] section",
                file=sys.stderr,
            )
            return 1
        report = json.loads(args.compare_only.read_text(encoding="utf-8"))
        comparison = _comparison_for(report, config.compare, args.config)
        print(comparison.summary())
        return 0 if comparison.ok else 1

    # Smoke runs gate nothing by default: tiny-scale numbers are not
    # comparable against committed full-scale history.
    compare = not args.no_compare and (
        args.smoke_profiles is None or args.force_compare
    )
    report, comparison = run_experiment(
        config,
        config_path=args.config,
        smoke_profiles=args.smoke_profiles,
        repeats=args.repeats,
        compare=compare,
    )

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            REPORTERS.get("json")(report), encoding="utf-8"
        )
    if args.markdown is not None:
        args.markdown.parent.mkdir(parents=True, exist_ok=True)
        args.markdown.write_text(
            REPORTERS.get("markdown")(report), encoding="utf-8"
        )

    equivalence = report["equivalence"]
    print(
        f"experiment {config.name!r}: {len(report['cells'])} cells"
        + (f" (smoke <= {args.smoke_profiles} profiles)"
           if args.smoke_profiles is not None else "")
        + (f", report {args.output}" if args.output is not None else "")
    )
    exit_code = 0
    if equivalence["groups"] and not equivalence["all_equivalent"]:
        mismatched = [
            group for group in equivalence["groups"]
            if not group["equivalent"]
        ]
        for group in mismatched:
            print(
                f"error: backend mismatch on {group['dataset']}/"
                f"{group['pipeline']}: {', '.join(group['cells'])} retained "
                "different pair sets",
                file=sys.stderr,
            )
        exit_code = 1
    if comparison is not None:
        print(comparison.summary())
        if not comparison.ok:
            exit_code = 1
    return exit_code
