"""Fixture-driven rule tests: each rule fires on its bad snippet file and
stays silent on the matching good file.

The bad fixtures carry ``# RLxxx`` markers on (most) offending lines, so
a failure message can point at the exact construct that stopped firing.
"""

from __future__ import annotations

import pytest

from _lint_helpers import FIXTURES, lint_fixture

#: rule code -> (bad fixture, expected finding count, good fixture)
CASES = {
    "RL001": ("rl001_bad.py", 9, "rl001_good.py"),
    "RL002": ("rl002_bad.py", 8, "rl002_good.py"),
    "RL003": ("rl003_bad.py", 5, "rl003_good.py"),
    "RL004": ("rl004_bad.py", 5, "rl004_good.py"),
    "RL005": ("rl005_bad.py", 4, "rl005_good.py"),
    "RL006": ("rl006_bad.py", 8, "rl006_good.py"),
    "RL007": ("rl007_bad.py", 7, "rl007_good.py"),
}


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_fires_on_bad_fixture(code: str) -> None:
    bad, expected_count, _ = CASES[code]
    findings = lint_fixture(bad)
    assert findings, f"{code} produced no findings on {bad}"
    codes = {f.code for f in findings}
    assert codes == {code}, f"unexpected codes {codes - {code}} in {bad}"
    rendered = "\n".join(f.render() for f in findings)
    assert len(findings) == expected_count, (
        f"expected {expected_count} {code} findings in {bad}, "
        f"got {len(findings)}:\n{rendered}"
    )


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_silent_on_good_fixture(code: str) -> None:
    _, _, good = CASES[code]
    findings = lint_fixture(good)
    rendered = "\n".join(f.render() for f in findings)
    assert not findings, f"false positives in {good}:\n{rendered}"


def test_bad_fixture_marker_lines_are_flagged() -> None:
    """Every ``# RLxxx`` marker comment sits on a line the rule flagged."""
    for code, (bad, _, _) in CASES.items():
        source = (FIXTURES / bad).read_text(encoding="utf-8")
        marked = {
            lineno
            for lineno, line in enumerate(source.splitlines(), start=1)
            if f"# {code}" in line
        }
        flagged = {f.line for f in lint_fixture(bad)}
        missing = marked - flagged
        assert not missing, f"{bad}: marker lines {sorted(missing)} not flagged"


def test_rl001_reports_name_the_sink() -> None:
    sinks = {f.message for f in lint_fixture("rl001_bad.py")}
    assert any("list()" in m for m in sinks)
    assert any("joined string" in m for m in sinks)
    assert any("yielded stream" in m for m in sinks)
    assert any("array" in m for m in sinks)


def test_rl003_flags_call_form_registration() -> None:
    findings = lint_fixture("rl003_bad.py")
    assert any("backend_missing_keywords" in f.message for f in findings)
    assert any("weighting" in f.message for f in findings)


def test_rl004_distinguishes_payload_kinds() -> None:
    messages = "\n".join(f.message for f in lint_fixture("rl004_bad.py"))
    assert "lambda" in messages
    assert "'worker'" in messages
    assert "'Worker'" in messages
    assert "initializer=" in messages


def test_rl007_names_the_blocking_call() -> None:
    messages = "\n".join(f.message for f in lint_fixture("rl007_bad.py"))
    assert "time.sleep()" in messages
    assert "open()" in messages
    assert "os.replace()" in messages
    assert "snooze() (= time.sleep)" in messages
    assert ".join()" in messages
    assert "subprocess.run()" in messages
