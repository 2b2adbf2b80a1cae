"""Every package must import cleanly when it is the *first* one imported.

``repro.schema`` runs its induction on the ``repro.graph`` kernels, while
``repro.graph -> repro.blocking -> canopy -> repro.schema.similarity``
already points the other way: the schema modules therefore import the
kernels inside the functions that call them.  A module-level import would
still work from most entry points and fail only from the one that enters
the cycle at the wrong place, so each package gets a fresh interpreter.
The package list is ``repro`` plus every subpackage found on disk, so a new
package is covered without editing a list; the CI ``lint-static`` job runs
this module.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys

import pytest

from _lint_helpers import SRC_ROOT

PACKAGES = ("repro",) + tuple(
    f"repro.{module.name}"
    for module in pkgutil.iter_modules([str(SRC_ROOT)])
    if module.ispkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_first_in_a_fresh_interpreter(package: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT.parent)
    result = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr
