"""Run-time utilities of the experiment engine.

CPU/RSS process probes for the per-cell monitor, the profiles->scale
arithmetic of the synthetic generators, and the order-independent digest
of a retained pair set that the cross-backend equivalence check compares.
"""

from __future__ import annotations

import hashlib
import sys
from collections.abc import Iterable, Mapping

__all__ = [
    "BASE_PROFILES",
    "pairs_digest",
    "peak_rss_mb",
    "process_cpu_seconds",
    "scale_for_profiles",
]

#: Profiles generated per unit ``scale`` by the built-in synthetic
#: datasets (clean-clean: size1 + size2 of Table 2's laptop-friendly
#: defaults; dirty: the Table 7 cluster totals).  The inverse of the
#: generators' ``_scaled`` arithmetic, used to translate a requested
#: profile count into a generator scale.
BASE_PROFILES: Mapping[str, int] = {
    "ar1": 650 + 580,
    "ar2": 400 + 4_800,
    "prd": 300 + 290,
    "mov": 1_400 + 1_150,
    "dbp": 1_500 + 2_500,
    "census": 1_000,
    "cora": 1_001,
    "cddb": 2_500,
}


def scale_for_profiles(name: str, profiles: int) -> float:
    """The generator ``scale`` producing roughly *profiles* for *name*.

    Exact for the clean-clean generators (their sizes scale linearly);
    approximate for the dirty ones (cluster counts quantize).
    """
    try:
        base = BASE_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"no base profile count recorded for dataset {name!r}; "
            f"known: {', '.join(sorted(BASE_PROFILES))}"
        ) from None
    if profiles < 1:
        raise ValueError(f"profiles must be positive, got {profiles}")
    return profiles / base


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (0.0 where unsupported).

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; both are the
    process-lifetime high-water mark, which is why bounded-memory claims
    are measured in fresh subprocess probes — a parent's own peak would
    mask the measurement.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return usage / (1024 * 1024)
    return usage / 1024


def process_cpu_seconds() -> float:
    """User + system CPU seconds of this process (0.0 where unsupported)."""
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pairs_digest(pairs: Iterable[tuple[int, int]]) -> str:
    """Order-independent SHA-256 digest of a retained pair set.

    The cross-backend equivalence probe: two runs retained the identical
    comparison set iff their digests match.
    """
    digest = hashlib.sha256()
    for left, right in sorted(pairs):
        digest.update(f"{left},{right};".encode())
    return digest.hexdigest()
