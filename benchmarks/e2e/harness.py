"""Shared pieces of the end-to-end benchmark: statistics, digests, the
round loop and the two metric summaries.

Every workload is a sequence of *rounds*.  A round sets the system up
(``start``: build the pipeline, open the session, boot the server), does
the workload's fixed work once with the clock running (``measure``) and
tears the system down (``stop``).  Rounds repeat until ``--seconds`` have
passed, so one invocation yields several samples of every timing and
several samples of the per-round set-up time.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Percentiles a latency tail may be reported at, highest first.
_TAIL_LADDER = (0.95, 0.9, 0.75)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Fewest rounds an untraced invocation measures, however short ``--seconds``.
MIN_ROUNDS = 3


# -- statistics ---------------------------------------------------------------


def tail_quantile(count: int) -> float:
    """The highest reportable percentile of *count* samples, as a fraction:
    the highest of p95/p90/p75 that keeps ``MIN_BEYOND`` samples beyond it,
    else the median."""
    for q in _TAIL_LADDER:
        if count - math.ceil(round(q * count, 9)) >= MIN_BEYOND:
            return q
    return 0.5


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (*q* as a fraction) of *samples*."""
    ordered = sorted(samples)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(rank, 1) - 1]


def tail(samples: list[float]) -> float:
    """The highest reportable percentile of *samples*."""
    return percentile(samples, tail_quantile(len(samples)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation between closest ranks."""
    ordered = sorted(values)

    def at(q: float) -> float:
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def steady(values: list[float], better: str = "lower") -> float:
    """The quartile of *values* on the undisturbed side.

    On this class of VM the disturbances — fresh-page faults charged as
    sys time, seconds-long dips in CPU speed — only ever add time, and
    they hit a third to a half of all rounds, so the median of five
    rounds flips between the disturbed and the undisturbed mode from one
    invocation to the next (measured: 46 % spread against 3 % for the
    quartile; see the README).  The quartile towards *better* is the
    cost of the code when the box leaves it alone, which is the part a
    change to the code can move.
    """
    q1, _, q3 = quartiles(values)
    return q1 if better == "lower" else q3


# -- digests and memory -------------------------------------------------------


def digest(items) -> str:
    """Order-independent digest of an iterable of items with stable reprs."""
    lines = sorted(repr(item) for item in items)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set, in MiB, of this process or of the largest child
    it has reaped."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- rounds -------------------------------------------------------------------


@dataclass
class Round:
    """What one measured round produced."""

    wall_s: float
    user_s: float
    sys_s: float
    #: Units of work done: profiles resolved (batch) or ops acknowledged.
    items: int
    #: Latency samples in ms, per query and per write.  A batch round has
    #: one of each (``pipeline.run`` and ``dataset.corpus``).
    query_ms: list[float]
    write_ms: list[float]
    #: Digest of the round's output (retained pairs / candidate lists).
    digest: str
    pair_completeness: float
    pair_quality: float
    attempted: int
    failed: int = 0
    #: Per-layer values of a traced round, keyed by metric name.
    layers: dict[str, float] = field(default_factory=dict)


class CpuClock:
    """Wall, user and sys time of a region, reaped children included."""

    @staticmethod
    def _cpu() -> tuple[float, float]:
        # getrusage, not os.times: microseconds instead of 10 ms ticks.
        own = resource.getrusage(resource.RUSAGE_SELF)
        reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + reaped.ru_utime, own.ru_stime + reaped.ru_stime

    def __enter__(self) -> "CpuClock":
        self._user, self._sys = self._cpu()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._wall
        user, sys_ = self._cpu()
        self.user, self.sys = user - self._user, sys_ - self._sys


def run_rounds(workload, seconds: float, recorder=None):
    """Run rounds for *seconds*; returns ``(rounds, traced, setups)``.

    The collector runs between rounds and never inside one.  With a
    *recorder*, untraced and traced rounds alternate for half of *seconds*
    (the other half is left to the layer probes), so that the tracing
    overhead compares neighbours in time.
    """
    rounds: list[Round] = []
    traced: list[Round] = []
    setups: list[float] = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        if recorder is None:
            if len(rounds) >= MIN_ROUNDS and elapsed >= seconds:
                break
        elif len(traced) == len(rounds) > 0 and elapsed >= seconds / 2:
            break
        trace_this = recorder is not None and len(rounds) > len(traced)
        gc.collect()
        start = time.perf_counter()
        system = workload.start()
        setups.append(time.perf_counter() - start)
        try:
            if trace_this:
                recorder.run += 1
                traced.append(workload.measure(system, recorder))
            else:
                rounds.append(workload.measure(system, None))
        finally:
            workload.stop(system)
    return rounds, traced, setups


# -- summaries ----------------------------------------------------------------


def end_to_end(workload, rounds: list[Round], setups, one_off: float) -> dict:
    """The end-to-end metrics of one untraced invocation."""

    def per_round(function, better="lower"):
        return steady([function(r) for r in rounds], better)

    # A served workload is judged by the server's memory, not the load
    # generator's; elsewhere the largest process of the run counts.
    rss = peak_rss_mb(children=True)
    if not getattr(workload, "server_side", False):
        rss = max(rss, peak_rss_mb())
    return {
        "setup_s": one_off + statistics.median(setups),
        "run_s": per_round(lambda r: r.wall_s),
        "run_user_cpu_s": per_round(lambda r: r.user_s),
        "peak_rss_mb": rss,
        "pair_completeness": rounds[-1].pair_completeness,
        "pair_quality": rounds[-1].pair_quality,
        "ops_per_s": per_round(lambda r: r.items / r.wall_s, "higher"),
        "query_p50_ms": per_round(lambda r: percentile(r.query_ms, 0.5)),
        "write_p50_ms": per_round(lambda r: percentile(r.write_ms, 0.5)),
    }


def per_layer(workload, rounds: list[Round], traced: list[Round]) -> dict:
    """The per-layer metrics of one traced invocation; ``None`` marks a
    probe that could not run."""
    values: dict = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in traced[0].layers
    }
    values.update(workload.probes(rounds, traced))
    values["trace.overhead_share"] = (
        steady([r.wall_s for r in traced]) / steady([r.wall_s for r in rounds])
        - 1.0
    )
    return values


def latency_tails(layer: str, rounds: list[Round]) -> dict:
    """Tail latencies of the untraced rounds of a traced pass.  They are
    reported, not gated: tails swing with this box's speed about twice as
    far as medians do (up to 0.34 between passes, above any bound)."""
    return {
        f"{layer}.query_p95_ms": steady([tail(r.query_ms) for r in rounds]),
        f"{layer}.write_p95_ms": steady([tail(r.write_ms) for r in rounds]),
    }


def describe_rounds(rounds: list[Round], setups, one_off: float) -> str:
    """Median, quartiles and sample counts behind the end-to-end numbers."""
    lines = []
    for name, samples in (
        ("wall_s", [r.wall_s for r in rounds]),
        ("user_s", [r.user_s for r in rounds]),
        ("sys_s", [r.sys_s for r in rounds]),
        ("round_setup_s", setups),
    ):
        q1, median, q3 = quartiles(samples)
        lines.append(
            f"rounds {name:14s} n={len(samples)} q1={q1:.4f} "
            f"median={median:.4f} q3={q3:.4f}"
        )
    queries, writes = len(rounds[0].query_ms), len(rounds[0].write_ms)
    lines.append(
        f"one-off set-up {one_off:.3f}s; per round {queries} query and "
        f"{writes} write samples, tails at "
        f"p{tail_quantile(queries) * 100:.0f} / p{tail_quantile(writes) * 100:.0f}"
    )
    return "\n".join(lines)
