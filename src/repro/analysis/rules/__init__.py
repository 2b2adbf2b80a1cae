"""The repro-lint rule set.

Rules are pluggable: anything implementing the
:class:`~repro.analysis.rules.base.LintRule` interface can be passed to
:class:`~repro.analysis.engine.LintEngine`.  :func:`default_rules` builds
the built-in contract set — one instance per run, so rule state never
leaks between files:

======  =============================  ==========================================
code    name                           invariant
======  =============================  ==========================================
RL001   unordered-set-iteration        set iteration never flows into an
                                       ordered output without ``sorted()``
RL002   unpinned-numpy-dtype           CSR/edge arrays pin fixed-width dtypes;
                                       no platform-C-long inference
RL003   registry-contract              registered components match the
                                       protocols in core/registry.py
RL004   unpicklable-worker-payload     no lambdas/local defs shipped to
                                       multiprocessing workers
RL005   order-dependent-float-sum      float accumulation over unordered
                                       collections uses ``math.fsum``
RL006   swallowed-exception            no bare ``except:``; broad catches
                                       never silently discard the error
RL007   async-blocking-call            coroutines never call blocking
                                       IO/sleep/join primitives
======  =============================  ==========================================
"""

from __future__ import annotations

from repro.analysis.rules.async_blocking import AsyncBlockingCallRule
from repro.analysis.rules.base import FileContext, LintRule, RawFinding
from repro.analysis.rules.determinism import (
    FloatAccumulationRule,
    UnorderedIterationRule,
)
from repro.analysis.rules.dtype import DtypeDisciplineRule
from repro.analysis.rules.exceptions import SwallowedExceptionRule
from repro.analysis.rules.pickling import PicklabilityRule
from repro.analysis.rules.registry import RegistryContractRule

__all__ = [
    "AsyncBlockingCallRule",
    "DtypeDisciplineRule",
    "FileContext",
    "FloatAccumulationRule",
    "LintRule",
    "PicklabilityRule",
    "RawFinding",
    "RegistryContractRule",
    "SwallowedExceptionRule",
    "UnorderedIterationRule",
    "default_rules",
]


def default_rules() -> list[LintRule]:
    """Fresh instances of the built-in contract rules, in code order."""
    return [
        UnorderedIterationRule(),
        DtypeDisciplineRule(),
        RegistryContractRule(),
        PicklabilityRule(),
        FloatAccumulationRule(),
        SwallowedExceptionRule(),
        AsyncBlockingCallRule(),
    ]
