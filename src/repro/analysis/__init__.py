"""repro-lint: AST-based static checks for the repo's determinism contracts.

Every guarantee the reproduction makes — serial/parallel/streaming backends
bit-identical to the python oracle, corpus-built blocks identical to the
string-keyed oracle — rests on a handful of coding contracts that runtime
tests can only sample: no unordered ``set`` iteration may flow into an
ordered output, numpy arrays on the CSR hot path must pin their dtypes
explicitly, registered components must match the registry protocols, and
objects shipped to worker processes must be picklable.  This package
checks those contracts *statically*, so a violation fails ``repro lint``
(and the CI ``lint-static`` job, and the pytest self-check) before it can
flake on another platform.

Usage::

    repro lint src/                  # or: python -m repro.analysis src/
    repro lint --format json src/    # machine-readable findings
    repro lint --list-rules          # rule codes + the invariant each encodes

Suppression::

    order = list(seen)  # repro-lint: disable=RL001  -- justification here

The engine (:class:`~repro.analysis.engine.LintEngine`) walks python
files, parses them once, and runs every registered rule — an
:class:`~repro.analysis.rules.base.LintRule` visitor — over the tree.
Rules are pluggable: subclass ``LintRule``, list it in
``repro.analysis.rules.default_rules`` (or pass your own rule set to the
engine).  See DESIGN.md "Static guarantees" for the rule catalogue.
"""

from __future__ import annotations

from repro.analysis.engine import Finding, LintEngine, lint_paths
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import default_rules

__all__ = [
    "Finding",
    "LintEngine",
    "default_rules",
    "lint_paths",
    "main",
    "render_json",
    "render_text",
]


def main(argv: list[str] | None = None) -> int:
    """The ``repro lint`` / ``python -m repro.analysis`` entry point."""
    from repro.analysis.cli import run

    return run(argv)
