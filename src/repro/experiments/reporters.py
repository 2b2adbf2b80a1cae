"""Pluggable experiment reporters behind a ``REPORTERS`` registry.

A reporter is a callable ``(report: Mapping) -> str`` rendering one
engine report (the dict :func:`repro.experiments.engine.run_experiment`
returns).  Built-ins:

* ``json`` — the schema-versioned machine artifact (indent-2, trailing
  newline, byte-stable for goldens after :func:`scrub_nondeterministic`).
* ``markdown`` — a human summary: dataset table, per-cell grid table,
  and the comparator's verdict table.

Third parties register via :func:`register_reporter`; config files name
reporters by registry key, so an unknown name fails at config load.
"""

from __future__ import annotations

import copy
import json
from collections.abc import Callable, Mapping
from typing import Any

from repro.core.registry import Registry

__all__ = [
    "EXPERIMENT_SCHEMA_VERSION",
    "REPORTERS",
    "register_reporter",
    "render_json",
    "render_markdown",
    "scrub_nondeterministic",
]

#: Schema version stamped into every engine report; bump when a key of
#: the top-level set or the per-cell shape is removed, renamed or changes
#: meaning.  An added key leaves the version alone: a reader of the old
#: shape still finds everything it reads.  The schema pin test and the
#: golden files move in the same commit either way.
EXPERIMENT_SCHEMA_VERSION = 1

Reporter = Callable[[Mapping[str, Any]], str]

REPORTERS: Registry[Reporter] = Registry("reporter")


def register_reporter(name: str) -> Callable[[Reporter], Reporter]:
    """Class/function decorator registering a reporter under *name*."""
    return REPORTERS.register(name)


#: Keys whose values are machine-dependent timings/footprints.  Scrubbed
#: (zeroed) for golden-file comparisons; everything else in a report is
#: deterministic under a fixed seed.
_NONDETERMINISTIC_KEYS = frozenset({
    "seconds",
    "wall_seconds",
    "wall_seconds_mean",
    "cpu_seconds",
    "minor_faults",
    "peak_rss_mb",
})


def scrub_nondeterministic(report: Mapping[str, Any]) -> dict[str, Any]:
    """A deep copy of *report* with every timing/RSS value zeroed.

    Structure is preserved — a golden diff still notices a vanished or
    added timing field, just not its machine-dependent magnitude.
    """

    def scrub(value: Any) -> Any:
        if isinstance(value, Mapping):
            return {
                key: 0.0 if key in _NONDETERMINISTIC_KEYS else scrub(item)
                for key, item in value.items()
            }
        if isinstance(value, (list, tuple)):
            return [scrub(item) for item in value]
        return value

    return scrub(copy.deepcopy(dict(report)))


@register_reporter("json")
def render_json(report: Mapping[str, Any]) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines


def _num(value: Any, digits: int = 4) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


@register_reporter("markdown")
def render_markdown(report: Mapping[str, Any]) -> str:
    lines: list[str] = [f"# Experiment: {report.get('name', '?')}", ""]
    description = report.get("description")
    if description:
        lines += [str(description), ""]
    lines += [
        f"- schema version: {report.get('schema_version')}",
        f"- seed: {report.get('seed')}  |  repeats: {report.get('repeats')}",
    ]
    if report.get("smoke_profiles") is not None:
        lines.append(
            f"- smoke mode: capped at {report['smoke_profiles']} profiles"
        )
    lines.append("")

    datasets = report.get("datasets", [])
    if datasets:
        lines += ["## Datasets", ""]
        lines += _table(
            ["label", "dataset", "kind", "profiles"],
            [
                [
                    str(d.get("label")),
                    str(d.get("name")),
                    str(d.get("kind")),
                    str(d.get("profiles")),
                ]
                for d in datasets
            ],
        )
        lines.append("")

    cells = report.get("cells", [])
    if cells:
        lines += ["## Cells", ""]
        lines += _table(
            ["cell", "PC", "PQ", "F1", "comparisons", "wall s", "peak MiB",
             "minor faults"],
            [
                [
                    str(cell.get("id")),
                    _num(cell.get("quality", {}).get("pair_completeness")),
                    _num(cell.get("quality", {}).get("pair_quality")),
                    _num(cell.get("quality", {}).get("f1")),
                    str(cell.get("quality", {}).get("comparisons")),
                    _num(cell.get("perf", {}).get("wall_seconds"), 3),
                    _num(cell.get("perf", {}).get("peak_rss_mb"), 1),
                    _num(cell.get("perf", {}).get("minor_faults"), 0),
                ]
                for cell in cells
            ],
        )
        lines.append("")

    equivalence = report.get("equivalence")
    if equivalence and equivalence.get("groups"):
        verdict = (
            "all groups equivalent"
            if equivalence.get("all_equivalent")
            else "MISMATCH across backends"
        )
        lines += [
            "## Cross-backend equivalence",
            "",
            f"{len(equivalence['groups'])} (dataset, pipeline) groups: "
            f"{verdict}.",
            "",
        ]

    comparison = report.get("comparison")
    if comparison:
        verdict = "CLEAN" if comparison.get("ok") else (
            "REGRESSED: " + ", ".join(comparison.get("failed", []))
        )
        lines += [
            "## Comparison",
            "",
            f"Baseline: `{comparison.get('baseline')}` — **{verdict}**",
            "",
        ]
        lines += _table(
            ["metric", "status", "direction", "baseline", "current",
             "allowance"],
            [
                [
                    str(m.get("name")),
                    str(m.get("status")),
                    str(m.get("direction")),
                    _num(m.get("baseline")),
                    _num(m.get("current")),
                    _num(m.get("allowance")),
                ]
                for m in comparison.get("metrics", [])
            ],
        )
        lines.append("")

    return "\n".join(lines).rstrip("\n") + "\n"
