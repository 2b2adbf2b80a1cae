"""A tiny in-memory span recorder for the traced pass.

A span is ``name, start, end, parent, run``: ``parent`` is the index of
the span that was open when this one began (``None`` at the top) and
``run`` groups the spans of one traced round.  Spans are kept in memory
and written out once, when the benchmark ends.  The untraced pass never
touches this module, so end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Recorder:
    def __init__(self) -> None:
        # [name, start, end, parent, run]; a list, not a dataclass, because
        # the streaming round records ~20k spans inside the timed region.
        self.spans: list[list] = []
        self._open: list[int] = []
        self.run = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run])
        self._open.append(index)
        try:
            yield index
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed by the caller (asyncio request round trips,
        which overlap and so cannot nest on the open-span stack)."""
        parent = self._open[-1] if self._open else None
        self.spans.append([name, start, end, parent, self.run])

    def duration(self, index: int) -> float:
        return self.spans[index][2] - self.spans[index][1]

    def children(self, index: int) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[3] == index]

    def self_time(self, index: int) -> float:
        """The span's duration minus the part its children cover."""
        _, start, end, _, _ = self.spans[index]
        intervals = [
            (self.spans[child][1], self.spans[child][2])
            for child in self.children(index)
        ]
        return (end - start) - covered(intervals, start, end)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]
        path.write_text(json.dumps({"spans": spans}), encoding="utf-8")


def covered(
    intervals: list[tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of *intervals* clipped to ``[start, end]``.

    Children may overlap (pipelined requests) or nest wrongly by a clock
    tick; the union counts every covered instant once.
    """
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
