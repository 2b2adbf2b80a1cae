"""The regression comparator: diff a benchmark report against history.

A :class:`MetricSpec` names one number by its path (the same in the
current report and in the baseline, a previous engine report), a
direction, and a tolerance.  :func:`compare_reports` resolves both sides
and produces a :class:`Comparison` of per-metric verdicts; any
``regression``/``missing``/``invalid`` verdict makes the comparison fail
(and ``repro bench`` exit non-zero).

Tolerance policy
----------------
The allowance of a metric is ``max(absolute, relative * |baseline|)`` —
the larger of the two bounds, so a config can say "within 5%, but never
quibble below 0.01".  Directions:

* ``higher`` — higher is better (PC, PQ, F1, speedups, qps).  Regression
  when the current value falls more than the allowance *below* the
  baseline; an equally large move up is an ``improved`` note.
* ``lower`` — lower is better (seconds, RSS, latency).  Mirror image.
* ``match`` — equivalence metrics (retained edges, block counts,
  profiles, pair digests).  Any deviation beyond the allowance, either
  way, is a regression; a non-numeric value must be equal.

Missing/new handling: a metric absent from the *baseline* is ``new``
(history hasn't recorded it yet — informational, never a failure); a
metric absent from the *current* report is ``missing`` (a failure: the
benchmark stopped measuring something it gates on).

Paths
-----
Metric paths are dotted key sequences with one bracket selector,
``[key=value]`` (first list element whose ``key`` stringifies to
``value``): ``cells[id=ar1/chi_h/vectorized].quality.f1``.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "Comparison",
    "MetricSpec",
    "MetricVerdict",
    "PathError",
    "Tolerance",
    "compare_reports",
    "resolve_path",
]

_SEGMENT = re.compile(r"^(?P<key>[^\[\]]*)(?P<selectors>(\[[^\[\]]+\])*)$")
_SELECTOR = re.compile(r"\[([^\[\]]+)\]")

#: Verdict statuses that fail a comparison.
_FAILING = frozenset({"regression", "missing", "invalid"})


class PathError(KeyError):
    """A metric path does not resolve inside a document."""


def resolve_path(document: Any, path: str) -> Any:
    """The value at *path* inside *document* (see module docstring).

    Raises :class:`PathError` when any step does not resolve.
    """
    if not path:
        raise PathError("empty metric path")
    value = document
    for segment in path.split("."):
        match = _SEGMENT.match(segment)
        if match is None:
            raise PathError(f"malformed path segment {segment!r} in {path!r}")
        key = match.group("key")
        if key:
            if not isinstance(value, Mapping) or key not in value:
                raise PathError(f"{path!r}: no key {key!r}")
            value = value[key]
        for selector in _SELECTOR.findall(match.group("selectors")):
            value = _select(value, selector, path)
    return value


def _select(value: Any, selector: str, path: str) -> Any:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise PathError(f"{path!r}: selector [{selector}] applied to a non-list")
    key, equals, wanted = selector.partition("=")
    if not equals:
        raise PathError(f"{path!r}: selector [{selector}] is not key=value")
    for item in value:
        if isinstance(item, Mapping) and str(item.get(key)) == wanted:
            return item
    raise PathError(f"{path!r}: no element with {key}={wanted}")


@dataclass(frozen=True)
class Tolerance:
    """The allowance formula: ``max(absolute, relative * |baseline|)``."""

    relative: float = 0.0
    absolute: float = 0.0

    def __post_init__(self) -> None:
        for name in ("relative", "absolute"):
            bound = getattr(self, name)
            if not isinstance(bound, (int, float)) or not math.isfinite(bound):
                raise ValueError(f"tolerance {name} must be finite, got {bound!r}")
            if bound < 0:
                raise ValueError(f"tolerance {name} must be >= 0, got {bound}")

    def allowance(self, baseline: float) -> float:
        return max(self.absolute, self.relative * abs(baseline))


@dataclass(frozen=True)
class MetricSpec:
    """One gated metric: its path in both reports, and how it may move."""

    name: str
    path: str
    direction: str = "match"
    tolerance: Tolerance = field(default_factory=Tolerance)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("metric name must be non-empty")
        if not self.path:
            raise ValueError(f"metric {self.name!r}: path is empty")
        if self.direction not in ("higher", "lower", "match"):
            raise ValueError(
                f"metric {self.name!r}: direction must be 'higher', 'lower' "
                f"or 'match', got {self.direction!r}"
            )


@dataclass(frozen=True)
class MetricVerdict:
    """The outcome of one metric comparison."""

    name: str
    status: str
    direction: str
    baseline: float | None = None
    current: float | None = None
    delta: float | None = None
    allowance: float | None = None
    note: str = ""

    @property
    def failed(self) -> bool:
        return self.status in _FAILING

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "direction": self.direction,
            "baseline": self.baseline,
            "current": self.current,
            "delta": self.delta,
            "allowance": self.allowance,
            "note": self.note,
        }


@dataclass(frozen=True)
class Comparison:
    """Every verdict of one report-vs-baseline comparison."""

    baseline_source: str
    verdicts: tuple[MetricVerdict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> tuple[MetricVerdict, ...]:
        return tuple(v for v in self.verdicts if v.failed)

    def to_dict(self) -> dict[str, Any]:
        return {
            "baseline": self.baseline_source,
            "ok": self.ok,
            "metrics": [v.to_dict() for v in self.verdicts],
            "failed": [v.name for v in self.failures],
        }

    def summary(self) -> str:
        """One human-readable line per verdict, worst first."""
        ordered = sorted(self.verdicts, key=lambda v: (not v.failed, v.name))
        lines = []
        for v in ordered:
            detail = v.note
            if v.baseline is not None and v.current is not None:
                detail = (
                    f"baseline {v.baseline:g} -> current {v.current:g} "
                    f"(allowance {v.allowance:g}, {v.direction})"
                )
            lines.append(f"  {v.status.upper():>10}  {v.name}: {detail}")
        verdict = "CLEAN" if self.ok else (
            f"REGRESSED ({', '.join(v.name for v in self.failures)})"
        )
        lines.append(
            f"comparison vs {self.baseline_source}: {verdict} "
            f"({len(self.verdicts)} metrics)"
        )
        return "\n".join(lines)


def _as_number(value: Any) -> float | None:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


def compare_metric(
    current: Mapping[str, Any], baseline: Mapping[str, Any], spec: MetricSpec
) -> MetricVerdict:
    """Resolve and judge one metric (the unit :func:`compare_reports` sums)."""
    try:
        baseline_raw = resolve_path(baseline, spec.path)
    except PathError as exc:
        return MetricVerdict(
            name=spec.name, status="new", direction=spec.direction,
            note=f"not in baseline ({exc.args[0]})",
        )
    try:
        current_raw = resolve_path(current, spec.path)
    except PathError as exc:
        return MetricVerdict(
            name=spec.name, status="missing", direction=spec.direction,
            baseline=_as_number(baseline_raw),
            note=f"not in current report ({exc.args[0]})",
        )

    baseline_value = _as_number(baseline_raw)
    current_value = _as_number(current_raw)
    if baseline_value is None or current_value is None:
        # Non-numeric on either side: require exact equality.
        equal = baseline_raw == current_raw
        return MetricVerdict(
            name=spec.name, status="ok" if equal else "regression",
            direction=spec.direction,
            note="" if equal else (
                f"non-numeric mismatch: baseline {baseline_raw!r} "
                f"vs current {current_raw!r}"
            ),
        )
    if math.isnan(baseline_value) or math.isnan(current_value):
        return MetricVerdict(
            name=spec.name, status="invalid", direction=spec.direction,
            baseline=baseline_value, current=current_value,
            note="NaN on one side of the comparison",
        )

    allowance = spec.tolerance.allowance(baseline_value)
    delta = current_value - baseline_value
    if spec.direction == "higher":
        status = (
            "regression" if delta < -allowance
            else "improved" if delta > allowance
            else "ok"
        )
    elif spec.direction == "lower":
        status = (
            "regression" if delta > allowance
            else "improved" if delta < -allowance
            else "ok"
        )
    else:  # match
        status = "regression" if abs(delta) > allowance else "ok"
    return MetricVerdict(
        name=spec.name, status=status, direction=spec.direction,
        baseline=baseline_value, current=current_value,
        delta=delta, allowance=allowance,
    )


def compare_reports(
    current: Mapping[str, Any],
    baseline: Mapping[str, Any],
    metrics: Sequence[MetricSpec],
    *,
    baseline_source: str = "baseline",
) -> Comparison:
    """Judge every metric of *metrics*; the comparator's entry point.

    Comparing any report against itself with any specs is always clean:
    every resolvable metric has delta 0 (within every allowance), and
    both-sides-missing resolves to ``new``, which never fails.
    """
    verdicts = tuple(compare_metric(current, baseline, spec) for spec in metrics)
    return Comparison(baseline_source=baseline_source, verdicts=verdicts)
