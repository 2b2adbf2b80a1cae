"""``stream_replay``: reads beside writes on an in-process session.

One round replays a fixed op list — every arrival upserted and queried at
once, one delete per 17 upserts — into a fresh ``fast``-view session on a
single thread (a closed loop of one).  No socket, no journal, no actor:
what moves this workload is index mutation and fast-view query cost.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import ops as opgen
from batch import ar1, isolated
from harness import CpuClock, Round, digest, latency_tails
from repro import BlastConfig, StreamingSession

QUERY_K = 10
#: Ids whose candidate lists are digested and scored after every round;
#: a thousand, so that pair quality barely moves from seed to seed.
SAMPLE_IDS = 1_000
_ARRIVALS = 5_000
#: Arrivals at the end of the op list that the layer probes time one by one.
_PROBE_ARRIVALS = 2_000
_EXACT_PROFILES = 1_000
_EXACT_SAMPLES = 30


def fast_session(**kwargs) -> StreamingSession:
    config = BlastConfig(stream_consistency="fast", stream_query_k=QUERY_K)
    return StreamingSession(config, clean_clean=True, **kwargs)


def apply_write(session, op) -> bool:
    verb, pid, source, profile = op
    if verb == "upsert":
        session.upsert(profile, source=source)
        return True
    return session.delete(pid, source=source)


def candidate_keys(session, key) -> list[tuple[str, int]]:
    pid, source = key
    return [
        (c.profile_id, c.source)
        for c in session.candidates(pid, k=QUERY_K, source=source)
    ]


class StreamWorkload:
    name = "stream_replay"

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.reference_digest: str | None = None

    def prepare(self, env) -> None:
        self.quick = env.quick
        self.scratch: Path = env.out_dir
        self.dataset = ar1(_ARRIVALS // (20 if env.quick else 1), env.seed)
        self.ops = opgen.stream_ops(self.dataset, env.seed)
        self.sample = opgen.sample_ids(self.ops, env.seed, SAMPLE_IDS)
        self.truth = opgen.truth_by_id(self.dataset)
        self.live = set(opgen.live_ids(self.ops))
        warm = fast_session()
        for op in self.ops[:500]:
            if op[0] == "query":
                candidate_keys(warm, op[1:3])
            else:
                apply_write(warm, op)
        warm.close()

    def start(self):
        return fast_session()

    def stop(self, session) -> None:
        session.close()

    def measure(self, session, recorder) -> Round:
        query_ms: list[float] = []
        write_ms: list[float] = []
        links = failed = 0
        clock = time.perf_counter
        upsert, delete = session.upsert, session.delete
        candidates = session.candidates
        with CpuClock() as cpu:
            for verb, pid, source, profile in self.ops:
                began = clock()
                if verb == "query":
                    links += len(candidates(pid, k=QUERY_K, source=source))
                    took = clock() - began
                    query_ms.append(took * 1e3)
                else:
                    if verb == "upsert":
                        upsert(profile, source=source)
                    elif not delete(pid, source=source):
                        failed += 1
                    took = clock() - began
                    write_ms.append(took * 1e3)
                if recorder is not None:
                    recorder.add("streaming." + verb, began, began + took)
        answers = {key: candidate_keys(session, key) for key in self.sample}
        pc, pq = opgen.quality(
            *opgen.match_counts(answers, self.truth, self.live)
        )
        layers = {}
        if recorder is not None:
            layers = {
                "streaming.links": links,
                "streaming.keys": session.index.num_blocks,
            }
        return Round(
            wall_s=cpu.wall,
            user_s=cpu.user,
            sys_s=cpu.sys,
            items=len(self.ops),
            query_ms=query_ms,
            write_ms=write_ms,
            digest=digest(answers.items()),
            pair_completeness=pc,
            pair_quality=pq,
            attempted=len(self.ops),
            failed=failed,
            layers=layers,
        )

    # -- layer probes (traced pass only) --------------------------------------

    def probes(self, rounds, traced: list[Round]) -> dict[str, float | None]:
        values = latency_tails("streaming", rounds)
        values.update(isolated(_slice_probe, _SLICE_METRICS, self))
        values.update(isolated(_exact_probe, _EXACT_METRICS, self))
        return values


def _split(workload: StreamWorkload) -> int:
    """Index of the op where the probe slice begins."""
    keep = _PROBE_ARRIVALS // (20 if workload.quick else 1)
    upserts = [i for i, op in enumerate(workload.ops) if op[0] == "upsert"]
    return upserts[-keep]


_SLICE_METRICS = (
    "streaming.upsert_us", "streaming.delete_us", "streaming.query_cold_us",
    "streaming.query_warm_us", "streaming.journal_append_us",
    "streaming.snapshot_s", "streaming.restore_s", "streaming.snapshot_bytes",
)


def _timed_slice(session, slice_ops) -> dict[str, list[float]]:
    """Apply the slice one op at a time: each upsert is followed by the
    first (cold) and an immediate second (warm) query of the arrival."""
    samples: dict[str, list[float]] = {
        "upsert": [], "delete": [], "cold": [], "warm": []
    }
    clock = time.perf_counter
    for op in slice_ops:
        verb, pid, source, _ = op
        if verb == "query":
            continue
        began = clock()
        apply_write(session, op)
        samples[verb].append(clock() - began)
        if verb == "upsert":
            for kind in ("cold", "warm"):
                began = clock()
                session.candidates(pid, k=QUERY_K, source=source)
                samples[kind].append(clock() - began)
    return samples


def _slice_probe(workload: StreamWorkload) -> dict:
    split = _split(workload)
    warm_ops = [op for op in workload.ops[:split] if op[0] != "query"]
    slice_ops = workload.ops[split:]

    plain = fast_session()
    for op in warm_ops:
        apply_write(plain, op)
    timed = _timed_slice(plain, slice_ops)

    journaled = fast_session(journal=workload.scratch / "wal.jsonl")
    for op in warm_ops:
        apply_write(journaled, op)
    with_journal = _timed_slice(journaled, slice_ops)
    journaled.close()

    def median_us(samples: list[float]) -> float:
        return statistics.median(samples) * 1e6

    snapshot = workload.scratch / "snapshot.json.gz"
    began = time.perf_counter()
    plain.snapshot(snapshot)
    snapshot_s = time.perf_counter() - began
    began = time.perf_counter()
    StreamingSession.restore(snapshot).close()
    restore_s = time.perf_counter() - began
    plain.close()
    return {
        "streaming.upsert_us": median_us(timed["upsert"]),
        "streaming.delete_us": median_us(timed["delete"]),
        "streaming.query_cold_us": median_us(timed["cold"]),
        "streaming.query_warm_us": median_us(timed["warm"]),
        "streaming.journal_append_us": median_us(with_journal["upsert"])
        - median_us(timed["upsert"]),
        "streaming.snapshot_s": snapshot_s,
        "streaming.restore_s": restore_s,
        "streaming.snapshot_bytes": snapshot.stat().st_size,
    }


_EXACT_METRICS = ("streaming.view_refresh_exact_ms",)


def _exact_probe(workload: StreamWorkload) -> dict:
    """What one write costs the next query under the library-default
    ``exact`` view: cold minus warm query on a 1,000-profile session."""
    writes = [op for op in workload.ops if op[0] == "upsert"]
    held = _EXACT_PROFILES // (20 if workload.quick else 1)
    session = StreamingSession(BlastConfig(), clean_clean=True)
    for op in writes[:held]:
        apply_write(session, op)
    refresh: list[float] = []
    for op in writes[held : held + _EXACT_SAMPLES]:
        apply_write(session, op)
        began = time.perf_counter()
        session.candidates(op[1], k=QUERY_K, source=op[2])
        cold = time.perf_counter() - began
        began = time.perf_counter()
        session.candidates(op[1], k=QUERY_K, source=op[2])
        refresh.append(cold - (time.perf_counter() - began))
    session.close()
    return {"streaming.view_refresh_exact_ms": statistics.median(refresh) * 1e3}


WORKLOADS = {"stream_replay": StreamWorkload}
