"""Self-tests of the benchmark harness.

Run with ``python -m pytest benchmarks/e2e/tests -q`` from the repository
root; outside tier-1's ``testpaths`` on purpose.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(E2E)]

import harness  # noqa: E402
import ops as opgen  # noqa: E402
from spans import Recorder, covered  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert harness.tail_quantile(200) == 0.95
    assert harness.tail_quantile(199) == 0.9
    assert harness.tail_quantile(40) == 0.75
    assert harness.tail_quantile(39) == 0.5
    assert harness.tail_quantile(1) == 0.5


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))
    assert harness.percentile(samples, 0.95) == 95
    assert harness.percentile(samples, 0.5) == 50
    assert harness.percentile([7.0], 0.5) == 7.0
    beyond = [s for s in samples if s > harness.percentile(samples, 0.9)]
    assert len(beyond) == 10


def test_steady_takes_the_quartile_on_the_better_side():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.steady(values, "lower") == 2.0
    assert harness.steady(values, "higher") == 4.0
    assert harness.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)


def test_digest_ignores_order_and_sees_content():
    items = [(i, i * i) for i in range(50)]
    shuffled = items[:]
    random.Random(3).shuffle(shuffled)
    assert harness.digest(items) == harness.digest(shuffled)
    assert harness.digest(items) != harness.digest(items[:-1])


def test_self_time_with_nested_and_overlapping_children():
    recorder = Recorder()
    recorder.spans = [
        ["round", 0.0, 10.0, None, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],      # overlaps a by one second
        ["c", 8.0, 9.0, 0, 1],
        ["a.inner", 2.0, 3.0, 1, 1],  # nested in a: not the round's child
    ]
    assert recorder.children(0) == [1, 2, 3]
    assert recorder.self_time(0) == 10.0 - (5.0 + 1.0)
    assert recorder.self_time(1) == 3.0 - 1.0
    assert recorder.self_time(4) == 1.0


def test_covered_clips_to_the_parent_interval():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert covered([], 0.0, 10.0) == 0.0


def test_spans_nest_and_share_the_run_id():
    recorder = Recorder()
    recorder.run = 4
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
        recorder.add("request", 0.0, 1.0)
    assert recorder.spans[inner][3] == outer
    assert recorder.spans[2][3] == outer
    assert {span[4] for span in recorder.spans} == {4}
    assert recorder.duration(outer) >= recorder.duration(inner)


def _small_dataset(seed: int):
    from repro import load_clean_clean

    return load_clean_clean("ar1", scale=0.25, seed=seed)


def test_op_streams_repeat_per_seed_and_differ_across_seeds():
    def keys(ops):
        return [op[:3] for op in ops]

    for build in (opgen.stream_ops, opgen.serve_ops):
        first = keys(build(_small_dataset(5), 5))
        assert first == keys(build(_small_dataset(5), 5))
        assert first != keys(build(_small_dataset(6), 6))


def test_served_queries_and_deletes_only_name_settled_ids():
    ops = opgen.serve_ops(_small_dataset(9), 9)
    upserted_at: dict = {}
    checked = 0
    for position, (verb, pid, source, _) in enumerate(ops):
        if verb == "upsert":
            upserted_at[(pid, source)] = position
        else:
            assert position - upserted_at[(pid, source)] >= opgen.SETTLE_LAG
            checked += 1
    assert checked > 50
    deleted = [op[1:3] for op in ops if op[0] == "delete"]
    assert len(deleted) == len(set(deleted))
    assert not set(deleted) & set(opgen.live_ids(ops))


def test_stream_ops_query_every_arrival_and_never_delete_twice():
    ops = opgen.stream_ops(_small_dataset(9), 9)
    verbs = [op[0] for op in ops]
    assert verbs.count("query") == verbs.count("upsert")
    assert verbs.count("delete") == verbs.count("upsert") // opgen.DELETE_EVERY
    sample = opgen.sample_ids(ops, 9, 40)
    assert sample == opgen.sample_ids(ops, 9, 40)
    assert set(sample) <= set(opgen.live_ids(ops))


def test_quality_counts():
    truth = {("a", 0): {("x", 1)}, ("b", 0): {("y", 1)}}
    answers = {("a", 0): [("x", 1), ("z", 1)], ("b", 0): []}
    live = {("a", 0), ("b", 0), ("x", 1), ("y", 1), ("z", 1)}
    assert opgen.match_counts(answers, truth, live) == (1, 2, 2)
    assert opgen.quality(1, 2, 2) == (0.5, 0.5)
    # A deleted partner is no longer wanted.
    assert opgen.match_counts(answers, truth, live - {("y", 1)}) == (1, 1, 2)


def test_quick_run_prints_every_metric_and_exits_zero():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    for section in ("end_to_end", "per_layer"):
        for metric in spec[section]:
            assert f"\n{metric['name']} " in done.stdout, metric["name"]
    for workload in spec["workloads"]:
        assert f"{workload['name']} --trace 1" in done.stdout
    assert "FAILED" not in done.stdout


def test_worker_refuses_to_run_without_the_program(tmp_path):
    """In a directory with only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch_wide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
