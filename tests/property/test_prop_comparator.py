"""Property-based tests: the regression comparator's tolerance algebra.

The comparator is the piece of the experiment engine that turns numbers
into CI verdicts, so its arithmetic must hold for arbitrary baselines,
deltas and tolerances — not just the handful of values the integration
tests exercise.  Core invariants:

* comparing any report against itself is always clean;
* the allowance is ``max(absolute, relative * |baseline|)``, exactly;
* ``higher``/``lower`` are mirror images, and a within-allowance move is
  ``ok`` in both directions;
* a metric missing from the baseline is ``new`` (never a failure); a
  metric missing from the current report is ``missing`` (always a
  failure).
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.experiments.comparator import (
    MetricSpec,
    Tolerance,
    compare_metric,
    compare_reports,
)

finite = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
bounds = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
directions = st.sampled_from(["higher", "lower", "match"])

metric_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="_"),
    min_size=1, max_size=12,
).filter(lambda name: not name.isdigit())

#: Flat numeric documents plus one nested level — enough structure to
#: exercise the dotted-path resolution without inventing path syntax the
#: generator would have to mirror.
documents = st.dictionaries(
    metric_names,
    st.one_of(finite, st.dictionaries(metric_names, finite, max_size=3)),
    max_size=6,
)


def _paths(document: dict) -> list[str]:
    paths = []
    for key, value in document.items():
        if isinstance(value, dict):
            paths.extend(f"{key}.{inner}" for inner in value)
        else:
            paths.append(key)
    return paths


@given(documents, directions, bounds, bounds)
def test_self_comparison_is_always_clean(document, direction, relative, absolute):
    """A report diffed against itself never regresses, whatever the specs."""
    tolerance = Tolerance(relative=relative, absolute=absolute)
    specs = [
        MetricSpec(name=f"m{i}", path=path, direction=direction,
                   tolerance=tolerance)
        for i, path in enumerate(_paths(document))
    ]
    # Plus one spec whose path resolves on neither side: "new", not a failure.
    specs.append(MetricSpec(name="ghost", path="no_such_metric",
                            direction=direction, tolerance=tolerance))
    comparison = compare_reports(document, document, specs)
    assert comparison.ok
    assert not comparison.failures


@given(finite, bounds, bounds)
def test_allowance_is_max_of_absolute_and_relative(baseline, relative, absolute):
    tolerance = Tolerance(relative=relative, absolute=absolute)
    assert tolerance.allowance(baseline) == max(
        absolute, relative * abs(baseline)
    )


@given(finite, finite, bounds, bounds, directions)
def test_verdict_matches_the_tolerance_arithmetic(
    baseline, current, relative, absolute, direction
):
    """The status is a pure function of delta vs allowance and direction."""
    tolerance = Tolerance(relative=relative, absolute=absolute)
    spec = MetricSpec(name="m", path="m", direction=direction,
                      tolerance=tolerance)
    verdict = compare_metric({"m": current}, {"m": baseline}, spec)
    allowance = tolerance.allowance(baseline)
    delta = current - baseline
    if direction == "match":
        expected = "regression" if abs(delta) > allowance else "ok"
    elif direction == "higher":
        expected = ("regression" if delta < -allowance
                    else "improved" if delta > allowance else "ok")
    else:
        expected = ("regression" if delta > allowance
                    else "improved" if delta < -allowance else "ok")
    assert verdict.status == expected
    assert verdict.failed == (expected == "regression")
    assert verdict.delta is not None and math.isclose(
        verdict.delta, delta, rel_tol=0, abs_tol=0
    )


@given(finite, finite, bounds, bounds)
def test_higher_and_lower_are_mirror_images(baseline, current, relative, absolute):
    """Negating both sides swaps the better-is-higher/lower verdicts."""
    tolerance = Tolerance(relative=relative, absolute=absolute)
    higher = compare_metric(
        {"m": current}, {"m": baseline},
        MetricSpec(name="m", path="m", direction="higher",
                   tolerance=tolerance),
    )
    mirrored = compare_metric(
        {"m": -current}, {"m": -baseline},
        MetricSpec(name="m", path="m", direction="lower",
                   tolerance=tolerance),
    )
    assert higher.status == mirrored.status


@given(finite, bounds, bounds, directions)
def test_improvement_is_never_a_regression(baseline, relative, absolute, direction):
    """Moving in the better direction can only be ok or improved."""
    if direction == "match":
        return
    better = baseline + 1.0 if direction == "higher" else baseline - 1.0
    verdict = compare_metric(
        {"m": better}, {"m": baseline},
        MetricSpec(name="m", path="m", direction=direction,
                   tolerance=Tolerance(relative=relative, absolute=absolute)),
    )
    assert verdict.status in ("ok", "improved")
    assert not verdict.failed


@given(finite, directions)
def test_missing_and_new_metric_handling(value, direction):
    """Baseline-missing is informational; current-missing always fails."""
    spec = MetricSpec(name="m", path="m", direction=direction)
    new = compare_metric({"m": value}, {}, spec)
    assert new.status == "new"
    assert not new.failed

    absent = compare_metric({}, {"m": value}, spec)
    assert absent.status == "missing"
    assert absent.failed

    both_absent = compare_metric({}, {}, spec)
    assert both_absent.status == "new"  # baseline checked first
    assert not both_absent.failed


@given(finite, finite)
def test_nan_is_invalid_and_fails(baseline, current):
    spec = MetricSpec(name="m", path="m")
    for left, right in ((math.nan, current), (baseline, math.nan)):
        verdict = compare_metric({"m": right}, {"m": left}, spec)
        assert verdict.status == "invalid"
        assert verdict.failed


@given(documents, documents, directions, bounds, bounds)
def test_comparison_failure_set_matches_verdicts(
    current, baseline, direction, relative, absolute
):
    """Comparison.ok/failures are consistent with the per-verdict flags."""
    tolerance = Tolerance(relative=relative, absolute=absolute)
    paths = sorted(set(_paths(current)) | set(_paths(baseline)))
    specs = [
        MetricSpec(name=f"m{i}", path=path, direction=direction,
                   tolerance=tolerance)
        for i, path in enumerate(paths)
    ]
    comparison = compare_reports(current, baseline, specs)
    assert comparison.ok == (not comparison.failures)
    assert set(comparison.failures) == {
        v for v in comparison.verdicts if v.failed
    }
    payload = comparison.to_dict()
    assert payload["ok"] == comparison.ok
    assert payload["failed"] == [v.name for v in comparison.failures]
