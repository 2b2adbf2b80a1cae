"""Fault-injected parallel execution: retry, fallback, bit-identity.

The acceptance contract of the reliability layer: under injected worker
death, task failure, or task delay, ``parallel_metablocking`` returns
exactly what the serial oracle returns — the faults cost retries and
wall-clock, never edges.

BLAST runs take the pre-pruned path (shards ship candidates and node
maxima, the parent decides), so every scenario here also pins that a
result assembled from any mix of worker-built, retried and serially
degraded shards is the oracle's — and that nothing the call started
outlives it, a Ctrl-C included: no child process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from _block_oracles import assert_same_edges
from _parallel_helpers import random_blocks

from repro.blocking.base import build_blocks
from repro.graph import WeightingScheme
from repro.graph.metablocking import reference_metablocking
from repro.graph.parallel import WORKER_FAULT_SITE, parallel_metablocking
from repro.graph.pruning import BlastPruning
from repro.reliability import FAULTS


@pytest.fixture
def blocks():
    return build_blocks(
        {"a": {0, 1, 2}, "b": {1, 2, 3}, "c": {0, 3}, "d": {2, 3, 4},
         "e": {0, 4}, "f": {1, 4}},
        is_clean_clean=False,
    )


@pytest.fixture
def oracle(blocks):
    return reference_metablocking(
        blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning()
    )


def run_parallel(blocks, **kwargs):
    return parallel_metablocking(
        blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning(),
        workers=2, shard_size=3, **kwargs,
    )


@pytest.fixture
def fork_only():
    if multiprocessing.get_start_method(allow_none=False) != "fork":
        pytest.skip("programmatically armed faults require fork workers")


def assert_no_orphans():
    """No process a call started may outlive the call."""
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def _no_orphans_after_any_test():
    yield
    assert_no_orphans()


class TestInjectedTaskFailure:
    def test_first_task_fails_then_retry_succeeds(
        self, blocks, oracle, fork_only
    ):
        with FAULTS.injected(WORKER_FAULT_SITE, "raise", hits=1):
            assert_same_edges(run_parallel(blocks), oracle)

    def test_poisoned_shards_degrade_to_serial(
        self, blocks, oracle, fork_only
    ):
        # Every pool attempt fails; the dispatcher must fall back to
        # in-process execution and still match the oracle bit for bit.
        with FAULTS.injected(WORKER_FAULT_SITE, "raise"):
            with pytest.warns(RuntimeWarning, match="degrading to serial"):
                result = run_parallel(blocks, max_retries=1)
        assert_same_edges(result, oracle)

    def test_zero_retries_still_completes_serially(
        self, blocks, oracle, fork_only
    ):
        with FAULTS.injected(WORKER_FAULT_SITE, "raise"):
            with pytest.warns(RuntimeWarning, match="degrading to serial"):
                result = run_parallel(blocks, max_retries=0)
        assert_same_edges(result, oracle)

    def test_no_worker_processes_leak(self, blocks, fork_only):
        with FAULTS.injected(WORKER_FAULT_SITE, "raise"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_parallel(blocks, max_retries=1)
        for child in multiprocessing.active_children():
            child.join(timeout=5)
        assert multiprocessing.active_children() == []


class TestInjectedWorkerDeath:
    def test_killed_worker_detected_by_timeout_and_retried(
        self, blocks, oracle, fork_only
    ):
        # The first shard task os._exit()s mid-shard: the pool loses the
        # task silently, so only the per-task timeout can recover it.
        with FAULTS.injected(WORKER_FAULT_SITE, "kill", hits=1):
            result = run_parallel(blocks, max_retries=2, task_timeout=2.0)
        assert_same_edges(result, oracle)

    def test_every_worker_killed_degrades_to_serial(
        self, blocks, oracle, fork_only
    ):
        with FAULTS.injected(WORKER_FAULT_SITE, "kill"):
            with pytest.warns(RuntimeWarning, match="degrading to serial"):
                result = run_parallel(blocks, max_retries=1, task_timeout=1.0)
        assert_same_edges(result, oracle)


class TestInjectedDelay:
    def test_slow_task_times_out_and_retries(self, blocks, oracle, fork_only):
        with FAULTS.injected(WORKER_FAULT_SITE, "delay", value=1.5, hits=1):
            result = run_parallel(blocks, max_retries=2, task_timeout=0.3)
        assert_same_edges(result, oracle)


class TestKnobPlumbing:
    def test_timeout_and_retry_shorthands(self, blocks, oracle):
        assert_same_edges(
            run_parallel(blocks, task_timeout=30.0, max_retries=1),
            oracle,
        )

    def test_invalid_knobs_rejected(self, blocks):
        with pytest.raises(ValueError, match="task_timeout"):
            run_parallel(blocks, task_timeout=0)
        with pytest.raises(ValueError, match="max_retries"):
            run_parallel(blocks, max_retries=-1)

    def test_faultless_run_matches_oracle(self, blocks, oracle):
        assert_same_edges(run_parallel(blocks), oracle)


@pytest.fixture(scope="module")
def dense_blocks():
    """Big enough that the shards' candidate filter really drops edges."""
    return random_blocks(5, profiles=120, blocks=90, largest=12)


#: Each scenario's injected fault and the dispatch's retry shorthands.
FAULT_SCENARIOS = {
    "raise-then-retry": (
        dict(action="raise", hits=1),
        dict(max_retries=2),
    ),
    # One task fails with no retry left: its shard is rebuilt in-process
    # while the other shards' worker-built results are kept.
    "raise-then-degrade-one-shard": (
        dict(action="raise", hits=1),
        dict(max_retries=0),
    ),
    "kill-then-retry": (
        dict(action="kill", hits=1),
        dict(max_retries=2, task_timeout=2.0),
    ),
    "delay-then-retry": (
        dict(action="delay", value=1.5, hits=1),
        dict(max_retries=2, task_timeout=0.3),
    ),
}


class TestPrePrunedShardsUnderFaults:
    @pytest.mark.parametrize("scenario", sorted(FAULT_SCENARIOS))
    @pytest.mark.parametrize(
        "weighting, boost, pruning",
        [
            (WeightingScheme.CHI_H, False, BlastPruning()),
            (WeightingScheme.JS, True, BlastPruning(c=4.0, d=1.5)),
        ],
        ids=["chi_h", "js-boost-c4-d1.5"],
    )
    def test_bit_identical_and_nothing_left_running(
        self, dense_blocks, scenario, weighting, boost, pruning, fork_only
    ):
        fault, retries = FAULT_SCENARIOS[scenario]
        kwargs = dict(
            weighting=weighting, pruning=pruning, entropy_boost=boost
        )
        oracle = reference_metablocking(dense_blocks, **kwargs)
        assert len(oracle)  # a vacuous fixture would prove nothing
        with FAULTS.injected(WORKER_FAULT_SITE, **fault):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = parallel_metablocking(
                    dense_blocks, workers=2, shard_size=400,
                    **retries, **kwargs,
                )
        assert_no_orphans()
        assert_same_edges(result, oracle)

    def test_fault_free_calls_leave_nothing_behind(self, dense_blocks):
        oracle = reference_metablocking(
            dense_blocks, weighting=WeightingScheme.CHI_H,
            pruning=BlastPruning(),
        )
        for _ in range(3):
            result = parallel_metablocking(
                dense_blocks, weighting=WeightingScheme.CHI_H,
                pruning=BlastPruning(), workers=2,
            )
            assert_no_orphans()
            assert_same_edges(result, oracle)


class TestInterruptedDispatch:
    def test_keyboard_interrupt_does_not_wait_for_the_tasks(
        self, blocks, fork_only
    ):
        # Every shard task sleeps 4 s; a Ctrl-C half a second in must
        # terminate the pool, not close() it and sit the sleeps out.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            with FAULTS.injected(WORKER_FAULT_SITE, "delay", value=4.0):
                started = time.monotonic()
                signal.setitimer(signal.ITIMER_REAL, 0.5)
                with pytest.raises(KeyboardInterrupt):
                    run_parallel(blocks)
                elapsed = time.monotonic() - started
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert elapsed < 2.0
        assert_no_orphans()


PIPELINE_SCRIPT = """
from repro import BlastConfig, build_pipeline
from repro.datasets import load_clean_clean

dataset = load_clean_clean("ar1", scale=0.05, seed=3)
print("loaded", flush=True)
result = build_pipeline(BlastConfig(backend="parallel", workers=2)).run(dataset)
assert len(result.blocks) > 0
print(len(result.blocks))
"""

posix_only = pytest.mark.skipif(
    not hasattr(os, "killpg"), reason="process groups are POSIX-only"
)


def spawn_pipeline_in_own_session(faults=None):
    # The whole pipeline in its own session: every process it forks
    # inherits the group, so once the leader has exited and been reaped,
    # signalling the group finds nobody unless a worker was orphaned.
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [sys.executable, "-c", PIPELINE_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )


@posix_only
def test_parallel_pipeline_leaves_its_process_group_empty():
    process = spawn_pipeline_in_own_session()
    stdout, stderr = process.communicate(timeout=120)
    assert process.returncode == 0, stderr.decode()
    assert int(stdout.split()[-1]) > 0
    with pytest.raises(ProcessLookupError):
        os.killpg(process.pid, 0)


@posix_only
def test_sigint_to_the_group_ends_the_pipeline_and_its_workers(fork_only):
    # What a terminal's Ctrl-C does: SIGINT reaches the leader and its
    # workers alike, the workers die holding their tasks, and the leader
    # must not wait for results that will never come.
    process = spawn_pipeline_in_own_session("parallel.worker=delay:3")
    try:
        assert process.stdout.readline() == b"loaded\n"
        time.sleep(1.0)  # the shards are dispatched and sleeping
        os.killpg(process.pid, signal.SIGINT)
        process.communicate(timeout=5)
        assert process.returncode == -signal.SIGINT
        with pytest.raises(ProcessLookupError):
            os.killpg(process.pid, 0)
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.communicate()
