"""Multi-process meta-blocking: the ``parallel`` backend.

The array driver (:func:`repro.graph.vectorized.sharded_metablocking`)
plans entity-id shards, collects each shard's slim result and lets the
pruning decide over the merged arrays; who runs the shards is its one
degree of freedom.  This module hands them to worker processes: the
per-run state (CSR index, dense per-node arrays, the pruning's decision
object) reaches each worker once through the pool initializer, a task is
one worker's run of consecutive ``(lo, hi)`` id ranges, and what comes
back is their :func:`~repro.graph.vectorized.run_shard` results folded
into one: the pruning's candidates and reduced state.  The retained edge
set therefore matches the ``vectorized`` (and the ``python`` oracle)
backend exactly, by construction: same driver, same shards.

``workers=1`` runs the shards in-process — no pool, no pickling — which
is the ``vectorized`` backend with the planning knobs (``shard_size``,
``shard_plan``) exposed.

Fault tolerance (see DESIGN.md "Reliability & recovery"): pool dispatch
is timeout-aware (``AsyncResult.get(task_timeout)``), failed or lost
shards are retried on a freshly built pool with deterministic seeded
backoff (:class:`~repro.reliability.RetryPolicy`), and shards that still
fail after the last retry fall back to in-process execution — the same
pure shard kernel, so the merged arrays (and therefore the retained edge
set) stay bit-identical no matter which attempt produced each shard.
Workers fire the ``parallel.worker`` fault site
(:data:`repro.reliability.FAULTS`) so tests and ``REPRO_FAULTS``
scenarios can deterministically kill, delay, or fail shard tasks.
Nothing outlives the call: every pool is built, closed (or terminated)
and joined inside it.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
import warnings

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import KeyEntropyFn
from repro.graph.pruning import PruningScheme
from repro.graph.vectorized import (
    Collector,
    SharedState,
    ShardResult,
    fold_shards,
    merge_shards,
    run_in_process,
    sharded_metablocking,
)
from repro.graph.weights import WeightingScheme
from repro.reliability import FAULTS, RetryPolicy

__all__ = [
    "merge_shards",
    "parallel_metablocking",
    "resolve_workers",
]

#: Fault site fired in a pool worker before its shard task runs.
WORKER_FAULT_SITE = "parallel.worker"


def resolve_workers(workers: int | None) -> int:
    """The effective worker-process count (``None`` -> cpu count).

    Validation matches :class:`~repro.core.config.BlastConfig`: the knob
    is positive or ``None``, at every API layer.
    """
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be positive or None, got {workers}")
    return workers


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares pages COW); fall back to the default.

    The fallback is announced through :mod:`warnings` rather than taken
    silently: under ``spawn`` every worker re-imports the package and
    initializer payloads travel by pickle, so a run benchmarked under
    ``fork`` behaves very differently — the operator should know which
    regime they are in.
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    context = multiprocessing.get_context()
    warnings.warn(
        "multiprocessing 'fork' start method unavailable on this platform; "
        f"falling back to {context.get_start_method()!r} (workers re-import "
        "the package and receive shared state by pickle)",
        RuntimeWarning,
        stacklevel=3,
    )
    return context


#: Worker-process slot for the run's shared state (set by ``_init_worker``):
#: one pickle per worker process, and zero pickling under ``fork``, where
#: the child inherits the parent's pages copy-on-write.
_WORKER_STATE: SharedState | None = None


def _init_worker(state: SharedState) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _run_shards_in_worker(bounds: list[tuple[int, int]]) -> ShardResult:
    """Pool entry point: consecutive ``(lo, hi)`` ranges, one result.

    Fires the ``parallel.worker`` fault site first, so injected worker
    death / delay / failure happens exactly where a real fault would:
    inside a pool worker, with the task already dispatched.  In-process
    shards (``workers=1`` and the retry fallback) never fire it — they
    *are* the degradation target.
    """
    FAULTS.fire(WORKER_FAULT_SITE)
    assert _WORKER_STATE is not None, "worker initialized without state"
    return fold_shards(_WORKER_STATE, bounds)


def _dispatch_shards(
    state: SharedState,
    plan: list[tuple[int, int]],
    collector: Collector,
    *,
    workers: int,
    policy: RetryPolicy,
) -> None:
    """Run every shard of *plan*, surviving worker death and stuck tasks.

    The dispatch state machine (DESIGN.md "Reliability & recovery"):

    1. **dispatch** — every unfinished task (a run of shards, one per
       worker) is submitted to a pool via ``apply_async``; each result is
       awaited with the policy's per-attempt timeout.
    2. **retry** — tasks whose result raised (a worker-side exception,
       a broken pipe from a killed worker) or timed out (a lost or stuck
       task) are retried on a *freshly built* pool after a deterministic
       seeded backoff, up to ``policy.max_retries`` times; tasks that
       completed are never recomputed.
    3. **degrade** — tasks still unfinished after the last retry run
       in-process through the identical pure kernel
       (:func:`~repro.graph.vectorized.fold_shards`), so the run completes
       with the exact arrays a fault-free run would have produced.

    Pools are torn down deterministically on every path: ``close()`` after
    a batch whose every result arrived, ``terminate()`` otherwise (a
    timed-out task would keep its worker busy forever; after a Ctrl-C the
    signalled workers have lost tasks ``close()`` would wait for), and
    ``join()`` always — no leaked workers or semaphores for ``pytest -x``
    to trip over.  A one-shard plan is not worth a fork and runs in-process.
    """
    if len(plan) < 2:
        run_in_process(state, plan, collector)
        return
    # A task is a run of consecutive shards its worker folds into one
    # result: one reduced partial state crosses the pipe per worker.
    runs, size = min(len(plan), workers), len(plan)
    tasks = [plan[size * k // runs : size * (k + 1) // runs] for k in range(runs)]
    pending = list(range(runs))
    last_error: BaseException | None = None
    context = pool_context()

    for attempt in range(policy.attempts):
        if not pending:
            break
        if attempt:
            time.sleep(policy.delay(attempt))
        pool = context.Pool(
            processes=min(workers, len(pending)),
            initializer=_init_worker,
            initargs=(state,),
        )
        clean = False
        try:
            handles = [
                (index, pool.apply_async(_run_shards_in_worker, (tasks[index],)))
                for index in pending
            ]
            unfinished: list[int] = []
            for index, handle in handles:
                try:
                    collector.add(index, handle.get(policy.task_timeout))
                except Exception as exc:
                    # Worker-side errors arrive re-raised from get();
                    # killed workers and stuck tasks surface as
                    # multiprocessing.TimeoutError.  Either way the shard
                    # is unfinished and retryable.
                    last_error = exc
                    unfinished.append(index)
            pending = unfinished
            clean = not unfinished
        finally:
            if clean:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    if pending:
        warnings.warn(
            f"parallel backend: {len(pending)} shard task(s) unfinished after "
            f"{policy.attempts} pool attempt(s) (last error: "
            f"{last_error!r}); degrading to serial in-process execution "
            "for those shards (results remain bit-identical)",
            RuntimeWarning,
            stacklevel=4,
        )
        for index in pending:
            collector.add(index, fold_shards(state, tasks[index]))


def parallel_metablocking(
    collection: BlockCollection,
    *,
    weighting=WeightingScheme.CHI_H,
    pruning: PruningScheme,
    entropy_boost: bool = False,
    key_entropy: KeyEntropyFn | None = None,
    workers: int | None = None,
    shard_size: int | None = None,
    shard_plan: list[tuple[int, int]] | None = None,
    task_timeout: float | None = None,
    max_retries: int | None = None,
) -> np.ndarray:
    """The ``parallel`` meta-blocking backend: sorted retained edges.

    :func:`~repro.graph.vectorized.sharded_metablocking` with a worker
    pool running the shards, hence bit-identical to
    :func:`repro.graph.vectorized.vectorized_metablocking` (and to the
    ``python`` oracle) for every weighting scheme and built-in pruning
    strategy — including under worker death, stuck tasks, and injected
    faults (failed shards are retried, then degraded to in-process
    execution of the identical kernel; see :func:`_dispatch_shards`).
    Unsupported components delegate to the reference path.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` means the machine's cpu count, ``1``
        runs the shards sequentially in-process (no pool, no pickling).
        Must be positive or ``None``.
    shard_size:
        Cap on the comparisons enumerated per shard (strict, except that
        a single entity owning more than the cap becomes a shard of its
        own); bounds the peak per-shard edge-array bytes.  ``None`` takes
        the default plan's cap
        (:func:`~repro.graph.sharding.default_plan`); either way the cap
        is tightened until every worker has a shard.
    shard_plan:
        Explicit ``[(lo, hi), ...]`` entity-id ranges, overriding the
        planner — the hook the conformance/property suites use to pin
        pathological shard layouts (empty ranges, single-entity ranges).
        Must tile ``[0, num_ids)`` contiguously (validated: an overlap or
        gap would silently corrupt the merge).
    task_timeout:
        Seconds one shard attempt may take before it is declared lost
        and retried (``None``: wait forever — a *killed* worker is then
        only recoverable when the pool machinery surfaces an error).
    max_retries:
        Pool retries per dispatch round before degrading the remaining
        shards to in-process execution (default 2).
    """
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    policy = RetryPolicy(
        max_retries=2 if max_retries is None else max_retries,
        task_timeout=task_timeout,
    )
    workers = resolve_workers(workers)
    run_shards = (
        functools.partial(_dispatch_shards, workers=workers, policy=policy)
        if workers > 1
        else run_in_process
    )
    return sharded_metablocking(
        collection,
        weighting=weighting,
        pruning=pruning,
        entropy_boost=entropy_boost,
        key_entropy=key_entropy,
        run_shards=run_shards,
        num_shards=workers,
        shard_size=shard_size,
        shard_plan=shard_plan,
    )
