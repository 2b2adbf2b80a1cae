"""Reporter output: the JSON schema contract and the text tally."""

from __future__ import annotations

import json
import textwrap

from repro.analysis import LintEngine, render_json, render_text
from repro.analysis.reporting import JSON_SCHEMA_VERSION
from repro.analysis.rules import default_rules

_SOURCE = textwrap.dedent(
    """
    def f(seen: set[int], weights: set[float]):
        return list(seen), sum(weights)
    """
)


def _findings():
    return LintEngine().lint_source(_SOURCE, path="demo.py")


def test_json_schema_shape() -> None:
    report = json.loads(render_json(_findings(), default_rules()))
    assert set(report) == {"schema_version", "findings", "summary", "rules"}
    assert report["schema_version"] == JSON_SCHEMA_VERSION

    assert len(report["findings"]) == 2
    for entry in report["findings"]:
        assert set(entry) == {"path", "line", "col", "code", "message"}
        assert entry["path"] == "demo.py"
        assert isinstance(entry["line"], int) and entry["line"] >= 1
        assert isinstance(entry["col"], int) and entry["col"] >= 0

    assert report["summary"]["total"] == 2
    assert report["summary"]["by_code"] == {"RL001": 1, "RL005": 1}

    codes = [rule["code"] for rule in report["rules"]]
    assert codes == ["RL001", "RL002", "RL003", "RL004", "RL005",
                     "RL006", "RL007"]
    for rule in report["rules"]:
        assert set(rule) == {"code", "name", "rationale"}


def test_json_is_deterministic() -> None:
    a = render_json(_findings(), default_rules())
    b = render_json(_findings(), default_rules())
    assert a == b


def test_json_empty_run() -> None:
    report = json.loads(render_json([], default_rules()))
    assert report["findings"] == []
    assert report["summary"] == {"total": 0, "by_code": {}}


def test_text_report_lists_findings_and_tally() -> None:
    text = render_text(_findings())
    lines = text.splitlines()
    assert lines[0].startswith("demo.py:")
    assert "RL001" in text and "RL005" in text
    assert lines[-1] == "found 2 contract violations"


def test_text_report_clean() -> None:
    assert "no contract violations" in render_text([])
