"""Seeded op streams for the two online workloads.

Both start from one generated clean-clean dataset whose profiles arrive
in a seeded shuffle of the two sources (the dataset's own order is all
of source 0, then all of source 1, which would leave the first half of a
clean-clean replay with nothing to match against).

An op is ``(verb, profile_id, source, profile)``; ``profile`` is ``None``
except on upserts.
"""

from __future__ import annotations

import random
from collections import deque

#: One delete per this many upserts (both workloads).
DELETE_EVERY = 17
#: ``serve_mixed``: one query per this many upserts.
QUERY_EVERY = 5
#: ``serve_mixed``: queries and deletes only name ids whose upsert lies at
#: least this many ops back.  The generator keeps at most 8 requests in
#: flight per connection, so an op sent 16 later is ordered behind the
#: upsert's ack and can never race it.
SETTLE_LAG = 16


def arrivals(dataset, seed: int) -> list[tuple]:
    """The dataset's ``(profile, source)`` records in seeded arrival order."""
    records = [
        (profile, dataset.source_of(gidx))
        for gidx, profile in dataset.iter_profiles()
    ]
    random.Random(seed).shuffle(records)
    return records


def stream_ops(dataset, seed: int) -> list[tuple]:
    """``stream_replay``: every arrival is upserted and then queried (the
    arrival-time query), with one delete of an earlier arrival per
    ``DELETE_EVERY`` upserts."""
    rng = random.Random(seed + 1)
    ops: list[tuple] = []
    live: list[tuple[str, int]] = []
    for count, (profile, source) in enumerate(arrivals(dataset, seed), 1):
        ops.append(("upsert", profile.profile_id, source, profile))
        ops.append(("query", profile.profile_id, source, None))
        live.append((profile.profile_id, source))
        if count % DELETE_EVERY == 0:
            victim = live.pop(rng.randrange(len(live) - 1))
            ops.append(("delete", victim[0], victim[1], None))
    return ops


def serve_ops(dataset, seed: int) -> list[tuple]:
    """``serve_mixed``: upserts with one query per ``QUERY_EVERY`` and one
    delete per ``DELETE_EVERY``, both aimed at settled ids only."""
    rng = random.Random(seed + 1)
    ops: list[tuple] = []
    pending: deque[tuple[int, str, int]] = deque()
    settled: list[tuple[str, int]] = []
    for count, (profile, source) in enumerate(arrivals(dataset, seed), 1):
        pending.append((len(ops), profile.profile_id, source))
        ops.append(("upsert", profile.profile_id, source, profile))
        while pending and pending[0][0] <= len(ops) - SETTLE_LAG:
            _, pid, psource = pending.popleft()
            settled.append((pid, psource))
        if count % QUERY_EVERY == 0 and settled:
            pid, psource = settled[rng.randrange(len(settled))]
            ops.append(("query", pid, psource, None))
        if count % DELETE_EVERY == 0 and len(settled) > 1:
            pid, psource = settled.pop(rng.randrange(len(settled)))
            ops.append(("delete", pid, psource, None))
    return ops


def live_ids(ops: list[tuple]) -> list[tuple[str, int]]:
    """The ``(profile_id, source)`` keys left in the index after *ops*, in
    first-arrival order."""
    live: dict[tuple[str, int], None] = {}
    for verb, pid, source, _ in ops:
        if verb == "upsert":
            live[(pid, source)] = None
        elif verb == "delete":
            live.pop((pid, source), None)
    return list(live)


def sample_ids(ops: list[tuple], seed: int, count: int) -> list[tuple[str, int]]:
    """A seeded sample of *count* live ids: the fixed query set whose
    candidate lists are digested at the end of a round."""
    live = live_ids(ops)
    return random.Random(seed + 2).sample(live, min(count, len(live)))


def truth_by_id(dataset) -> dict[tuple[str, int], set[tuple[str, int]]]:
    """Ground-truth partners of every profile, keyed like ``live_ids``."""
    partners: dict[tuple[str, int], set[tuple[str, int]]] = {}
    for i, j in dataset.truth_pairs:
        a = (dataset.profile(i).profile_id, dataset.source_of(i))
        b = (dataset.profile(j).profile_id, dataset.source_of(j))
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    return partners


def match_counts(
    answers: dict[tuple[str, int], list[tuple[str, int]]],
    truth: dict[tuple[str, int], set[tuple[str, int]]],
    live: set[tuple[str, int]],
) -> tuple[int, int, int]:
    """``(found, wanted, returned)`` over the sampled candidate lists:
    true matches found, live true matches of the sampled ids, and
    candidates returned."""
    found = wanted = returned = 0
    for key, candidates in answers.items():
        matches = truth.get(key, set()) & live
        wanted += len(matches)
        returned += len(candidates)
        found += len(matches.intersection(candidates))
    return found, wanted, returned


def quality(found: int, wanted: int, returned: int) -> tuple[float, float]:
    """(PC, PQ): matches found over matches wanted, and over candidates
    returned."""
    return found / max(wanted, 1), found / max(returned, 1)
