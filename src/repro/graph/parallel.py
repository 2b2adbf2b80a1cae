"""Sharded multi-process meta-blocking: the ``parallel`` backend.

The vectorized backend (``repro.graph.vectorized``) made meta-blocking a
handful of numpy passes; this module spreads the dominant pass — pair
enumeration, edge deduplication, mass accumulation, weighting — across
worker processes, one contiguous entity-id shard each
(``repro.graph.sharding``), then merges the shards deterministically and
prunes in the parent:

1. the parent plans contiguous entity-id ranges balanced on per-entity
   comparison counts (:func:`~repro.graph.sharding.plan_shards`);
2. each worker enumerates its shard's comparisons, dedupes them into
   sorted edge arrays, accumulates the float masses, and — for every
   weighting except EJS — evaluates the edge weights in place with the
   shared elementwise kernel
   (:func:`~repro.graph.vectorized.compute_edge_weights`), then ships
   back only what the parent still reads: endpoints and weights, and
   under BLAST pruning only the *candidate* edges that pass BLAST's test
   against the shard's own per-node maxima, plus those maxima
   (:func:`_run_shard`);
3. the parent concatenates the shard arrays (shards cover ascending
   ``src`` ranges, so concatenation IS the lexicographic edge order),
   computes EJS from the merged global degrees when needed, and decides:
   BLAST by the serial test
   (:func:`~repro.graph.vectorized.blast_retain_mask`) against the
   max-reduced global maxima, every other scheme by the existing
   vectorized pruning (:func:`~repro.graph.vectorized.prune_mask`) over
   the merged arrays.

Because each edge lives in exactly one shard with all of its block
occurrences, every shard array is a slice of the serial vectorized
backend's, bit for bit.  WEP/WNP/CEP/CNP then run the identical pruning
code on the identical merged inputs.  BLAST's shard-local filter is
exact, not approximate: a maximum is an order-free reduction, local
maxima never exceed the global ones, and the test is monotone in them, so
a shard only ever drops edges the global test drops too — and the global
test is what decides.  The retained edge set therefore matches the
``vectorized`` (and the ``python`` oracle) backend exactly, for every
weighting scheme and built-in pruning strategy.

``workers=1`` runs the shards sequentially in-process — no pool, no
pickling — which doubles as the chunked low-memory mode: with
``shard_size`` set, the big per-pair arrays (the packed sort keys and
their argsort workspace) never exceed one shard's comparisons, instead of
the full ``||B||`` the serial backend materializes at once — and under
BLAST pruning neither do the outputs: each shard leaves behind only its
candidates and its fold into one running maxima array.

Fault tolerance (see DESIGN.md "Reliability & recovery"): pool dispatch
is timeout-aware (``AsyncResult.get(task_timeout)``), failed or lost
shards are retried on a freshly built pool with deterministic seeded
backoff (:class:`~repro.reliability.RetryPolicy`), and shards that still
fail after the last retry fall back to serial in-process execution — the
same pure shard kernel, so the merged arrays (and therefore the retained
edge set) stay bit-identical to the all-serial result no matter which
attempt produced each shard.  Workers fire the ``parallel.worker`` fault
site (:data:`repro.reliability.FAULTS`) so tests and ``REPRO_FAULTS``
scenarios can deterministically kill, delay, or fail shard tasks.

Two orthogonal execution modes extend the per-run pool (DESIGN.md
"Out-of-core & shared memory"):

* ``pool="persistent"`` — workers come from the process-wide
  :class:`~repro.graph.pool.PersistentPool` and attach to the run's CSR
  arrays through named shared-memory segments
  (:class:`~repro.graph.pool.SharedArrayBundle`), published once per
  index and cached by the index's identity token; successive runs over
  the same index pay zero fork cost and zero array shipping.  The
  per-task payload stays a bare ``(spec name, lo, hi)`` triple.
* ``spill_dir``/``spill_threshold_mb`` — shard outputs above the byte
  budget stream to atomic ``.npy`` files (:mod:`repro.graph.spill`) and
  the concatenation merge writes into memmapped outputs, bounding peak
  RSS while staying bit-identical (preallocate-and-copy concatenation
  is byte-wise ``np.concatenate``).

Inputs the array path cannot express (custom weighting callables,
user-defined pruning schemes) delegate to the pure-python reference
backend, exactly like the vectorized backend does.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.blocking_graph import Edge, KeyEntropyFn
from repro.graph.pool import (
    AttachedArrays,
    BlobSegment,
    SegmentSpec,
    SharedArrayBundle,
    add_shutdown_hook,
    get_pool,
    pool_context,
    read_blob,
)
from repro.graph.pruning import BlastPruning, PruningScheme
from repro.graph.sharding import (
    ShardableIndex,
    ShardEdges,
    plan_shards,
    shard_edge_arrays,
)
from repro.graph.spill import (
    SpilledArray,
    SpilledShardEdges,
    SpillJob,
    SpillSpec,
    concat_spillable,
    load_array,
    resolve_shard,
    spill_shard,
)
from repro.graph.vectorized import (
    blast_retain_mask,
    compute_edge_weights,
    edge_degrees,
    node_maxima,
    prune_mask,
    supports_pruning,
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


@dataclass(frozen=True)
class _SharedState:
    """The per-run state every worker shares, shipped ONCE per worker.

    The CSR index and the dense per-node/per-block arrays are identical
    for every shard, so they travel through the pool *initializer* — one
    pickle per worker process (and zero pickling under ``fork``, where
    the child inherits the parent's pages copy-on-write) — while the
    per-task payload is just an ``(lo, hi)`` id range.  ``scheme`` is the
    weighting to evaluate in the worker (its string value, not the enum
    member) or ``None`` when the parent weights after the merge (EJS,
    which needs global degrees).  ``blast`` is BLAST pruning's ``(c, d)``
    when the shards pre-prune against their local maxima (see
    :func:`_run_shard`), else ``None``.
    """

    index: ShardableIndex
    block_entropies: np.ndarray | None
    need_arcs: bool
    scheme: str | None
    entropy_boost: bool
    node_block_counts: np.ndarray | None
    num_blocks: int
    blast: tuple[float, float] | None = None


#: Worker-process slot for the run's shared state (set by ``_init_worker``).
_WORKER_STATE: _SharedState | None = None

#: Worker-process slot for the run's spill policy (set by ``_init_worker``).
_WORKER_SPILL: SpillSpec | None = None

#: One shard's result as dispatch produces it: edges and weights
#: (possibly spilled by-path), plus BLAST's dense local maxima.
_ShardResult = tuple[
    ShardEdges | SpilledShardEdges,
    "np.ndarray | SpilledArray | None",
    "np.ndarray | None",
]


def _init_worker(state: _SharedState, spill: SpillSpec | None = None) -> None:
    global _WORKER_STATE, _WORKER_SPILL
    _WORKER_STATE = state
    _WORKER_SPILL = spill


def _run_shard(
    state: _SharedState, lo: int, hi: int, spill: SpillSpec | None = None
) -> _ShardResult:
    """Shard body: one id range's edges, shipped as slim as pruning allows.

    What comes back depends on what the parent still has to read:

    * weights deferred to the parent (EJS) — the full edge arrays;
    * weights evaluated here — endpoints and weights only (every pruning
      reads nothing else);
    * BLAST pruning on top — only the *candidate* edges that pass BLAST's
      test against this shard's local maxima, plus those maxima.  Local
      maxima never exceed the global ones and the test is monotone in
      them (:func:`~repro.graph.vectorized.blast_retain_mask`), so every
      globally retained edge is among its shard's candidates; the parent
      re-applies the same test with the reduced global maxima.

    With *spill* armed, an over-budget result is written to atomic
    ``.npy`` files and returned by path (``shard-{lo}`` stems are unique
    — plans tile the id space, and a retried shard overwrites its own
    files with identical bytes).
    """
    edges = shard_edge_arrays(
        state.index,
        lo,
        hi,
        block_entropies=state.block_entropies,
        need_arcs=state.need_arcs,
    )
    tag = f"shard-{lo}"
    if state.scheme is None:
        return (*spill_shard(edges, None, spill, tag), None)
    counts = state.node_block_counts
    src, dst = edges.src, edges.dst
    weights = compute_edge_weights(
        WeightingScheme(state.scheme),
        shared=edges.shared,
        blocks_i=counts[src],
        blocks_j=counts[dst],
        num_blocks=state.num_blocks,
        arcs_mass=edges.arcs_mass,
        entropy_mass=edges.entropy_mass,
        entropy_boost=state.entropy_boost,
    )
    maxima = None
    if state.blast is not None:
        c, d = state.blast
        maxima = node_maxima(src, dst, weights, state.index.num_ids)
        keep = blast_retain_mask(maxima, src, dst, weights, c=c, d=d)
        src, dst, weights = src[keep], dst[keep], weights[keep]
    slim = ShardEdges(src=src, dst=dst, shared=None)
    return (*spill_shard(slim, weights, spill, tag), maxima)


def _run_shard_in_worker(bounds: tuple[int, int]) -> _ShardResult:
    """Pool entry point: one ``(lo, hi)`` range against the worker state.

    Fires the ``parallel.worker`` fault site first, so injected worker
    death / delay / failure happens exactly where a real fault would:
    inside a pool worker, with the task already dispatched.  The serial
    paths (``workers=1`` and the retry fallback) never fire it — they
    *are* the degradation target.
    """
    FAULTS.fire(WORKER_FAULT_SITE)
    assert _WORKER_STATE is not None, "worker initialized without state"
    return _run_shard(_WORKER_STATE, bounds[0], bounds[1], _WORKER_SPILL)


# --------------------------------------------------------------------------
# Persistent-pool job publication (parent side)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _JobSpec:
    """Everything a persistent-pool worker needs, reachable by one name.

    The manifest points at the shared-memory segments holding the CSR
    arrays; the scalars travel inline.  The whole spec is pickled into a
    :class:`~repro.graph.pool.BlobSegment`, so the per-task payload sent
    through the pool is just ``(spec name, lo, hi)``.
    """

    manifest: dict[str, SegmentSpec]
    is_clean_clean: bool
    num_ids: int
    num_blocks: int
    need_arcs: bool
    scheme: str | None
    entropy_boost: bool
    blast: tuple[float, float] | None
    spill: SpillSpec | None


#: Parent-side publication cache: the CSR arrays of the last-published
#: index, keyed by its identity token (satellite: successive
#: ``parallel_metablocking`` calls over one index within a pipeline run
#: must not re-ship the arrays).  The third element is a private copy of
#: the published entropies — they are rebuilt per call, so reuse is
#: content-checked, not identity-checked.
_PUBLISHED_BUNDLE: tuple[tuple, SharedArrayBundle, np.ndarray | None] | None
_PUBLISHED_BUNDLE = None

#: Parent-side spec-blob cache (tiny; re-published whenever any scalar of
#: the job changes, without busting the expensive array bundle above).
_PUBLISHED_SPEC: tuple[tuple, BlobSegment] | None = None


def _close_publications() -> None:
    """Unlink every published segment (runs on every ``shutdown_pool``)."""
    global _PUBLISHED_BUNDLE, _PUBLISHED_SPEC
    if _PUBLISHED_SPEC is not None:
        _PUBLISHED_SPEC[1].close()
        _PUBLISHED_SPEC = None
    if _PUBLISHED_BUNDLE is not None:
        _PUBLISHED_BUNDLE[1].close()
        _PUBLISHED_BUNDLE = None


add_shutdown_hook(_close_publications)


def _publish_job(state: _SharedState, spill: SpillSpec | None) -> str:
    """Publish the run's arrays + spec to shared memory; return the name.

    Two-level cache: the array bundle is reused whenever the index
    identity token (plus which optional arrays are present, plus the
    entropies' *content*) matches — so a fresh per-run spill directory
    or a different weighting scheme republishes only the spec blob.
    """
    global _PUBLISHED_BUNDLE, _PUBLISHED_SPEC
    has_counts = state.node_block_counts is not None
    has_entropies = state.block_entropies is not None
    bundle_key = (state.index.identity_token, has_counts, has_entropies)
    bundle_hit = (
        _PUBLISHED_BUNDLE is not None
        and _PUBLISHED_BUNDLE[0] == bundle_key
        and (
            not has_entropies
            or np.array_equal(_PUBLISHED_BUNDLE[2], state.block_entropies)
        )
    )
    if not bundle_hit:
        _close_publications()
        arrays = {
            "block_ptr": state.index.block_ptr,
            "block_split": state.index.block_split,
            "entity_ids": state.index.entity_ids,
            "block_comparisons": state.index.block_comparisons,
        }
        if has_counts:
            arrays["node_block_counts"] = state.node_block_counts
        if has_entropies:
            arrays["block_entropies"] = state.block_entropies
        bundle = SharedArrayBundle.publish(arrays)
        entropies_copy = (
            np.array(state.block_entropies, dtype=np.float64, copy=True)
            if has_entropies
            else None
        )
        _PUBLISHED_BUNDLE = (bundle_key, bundle, entropies_copy)
    spec_key = (
        bundle_key,
        state.scheme,
        state.entropy_boost,
        state.need_arcs,
        state.blast,
        spill,
    )
    if _PUBLISHED_SPEC is not None and _PUBLISHED_SPEC[0] == spec_key:
        return _PUBLISHED_SPEC[1].name
    if _PUBLISHED_SPEC is not None:
        _PUBLISHED_SPEC[1].close()
        _PUBLISHED_SPEC = None
    spec = _JobSpec(
        manifest=_PUBLISHED_BUNDLE[1].manifest,
        is_clean_clean=state.index.is_clean_clean,
        num_ids=state.index.num_ids,
        num_blocks=state.num_blocks,
        need_arcs=state.need_arcs,
        scheme=state.scheme,
        entropy_boost=state.entropy_boost,
        blast=state.blast,
        spill=spill,
    )
    blob = BlobSegment(pickle.dumps(spec))
    _PUBLISHED_SPEC = (spec_key, blob)
    return blob.name


# --------------------------------------------------------------------------
# Persistent-pool attachment (worker side)
# --------------------------------------------------------------------------


#: Worker-side attachment cache: ``(spec name, rebuilt state, spill,
#: attachment)``.  Keyed by spec name, so a worker re-attaches only when
#: the parent published a new job — successive shards of one run (and
#: successive runs over one index) reuse the mapped segments.
_ATTACHED: tuple[str, _SharedState, SpillSpec | None, AttachedArrays] | None
_ATTACHED = None


def _attached_state(spec_name: str) -> tuple[_SharedState, SpillSpec | None]:
    """The worker's shared state for *spec_name*, attaching on first use."""
    global _ATTACHED
    cached = _ATTACHED
    if cached is not None and cached[0] == spec_name:
        return cached[1], cached[2]
    if cached is not None:
        _ATTACHED = None
        _, stale_state, _, stale_arrays = cached
        # The stale state's index views the stale segments' buffers; the
        # views must die before close() can release the maps cleanly.
        del cached, stale_state
        stale_arrays.close()
    spec: _JobSpec = pickle.loads(read_blob(spec_name))
    attached = AttachedArrays(spec.manifest)
    arrays = attached.arrays
    index = ShardableIndex(
        is_clean_clean=spec.is_clean_clean,
        block_ptr=arrays["block_ptr"],
        block_split=arrays["block_split"],
        entity_ids=arrays["entity_ids"],
        block_comparisons=arrays["block_comparisons"],
        num_ids=spec.num_ids,
    )
    state = _SharedState(
        index=index,
        block_entropies=arrays.get("block_entropies"),
        need_arcs=spec.need_arcs,
        scheme=spec.scheme,
        entropy_boost=spec.entropy_boost,
        node_block_counts=arrays.get("node_block_counts"),
        num_blocks=spec.num_blocks,
        blast=spec.blast,
    )
    _ATTACHED = (spec_name, state, spec.spill, attached)
    return state, spec.spill


def _run_shard_over_shm(task: tuple[str, int, int]) -> _ShardResult:
    """Persistent-pool entry point: attach by name, run one shard.

    Same fault-site contract as :func:`_run_shard_in_worker` — the
    ``parallel.worker`` site fires before any work, so injected kills
    and failures land inside a live pool worker.
    """
    FAULTS.fire(WORKER_FAULT_SITE)
    spec_name, lo, hi = task
    state, spill = _attached_state(spec_name)
    return _run_shard(state, lo, hi, spill)


def merge_shards(
    shards: list[ShardEdges], spill: SpillSpec | None = None
) -> ShardEdges:
    """Concatenate per-shard edge arrays into the global edge arrays.

    Shards cover ascending ``src`` ranges and each shard is sorted
    lexicographically, so plain concatenation in plan order yields the
    globally sorted, duplicate-free edge list — bit-identical to
    ``ArrayBlockingGraph``'s arrays (each edge's masses were accumulated
    whole inside its single owning shard).  Fields the shards left out
    (``shared`` and the masses on slim, already-weighted results) stay
    ``None``; dropping edges inside a shard, as BLAST's candidate
    filter does, keeps the order argument intact.  With *spill* armed the
    merged arrays land in memmapped ``.npy`` files when over budget —
    same bytes, bounded residency (:func:`~repro.graph.spill.concat_spillable`).
    """
    if not shards:
        empty_i = np.zeros(0, dtype=np.int64)
        return ShardEdges(src=empty_i, dst=empty_i.copy(), shared=empty_i.copy())
    return ShardEdges(
        src=concat_spillable([s.src for s in shards], spill, "merged-src"),
        dst=concat_spillable([s.dst for s in shards], spill, "merged-dst"),
        shared=concat_spillable(
            [s.shared for s in shards], spill, "merged-shared"
        )
        if shards[0].shared is not None
        else None,
        arcs_mass=concat_spillable(
            [s.arcs_mass for s in shards], spill, "merged-arcs"
        )
        if shards[0].arcs_mass is not None
        else None,
        entropy_mass=concat_spillable(
            [s.entropy_mass for s in shards], spill, "merged-entropy"
        )
        if shards[0].entropy_mass is not None
        else None,
    )


@dataclass(frozen=True)
class _MergedGraph:
    """The merged-array stand-in ``prune_mask`` dispatches over.

    Duck-types the slice of ``ArrayBlockingGraph`` the vectorized pruning
    handlers read: edge endpoints, the dense ``|B_p|`` array, and the
    indexed-profile count.
    """

    src: np.ndarray
    dst: np.ndarray
    node_blocks: np.ndarray
    num_nodes: int


def _validate_plan(plan: list[tuple[int, int]], num_ids: int) -> None:
    """Reject shard plans that would silently corrupt the merge.

    Merging is plain concatenation, so a plan must tile ``[0, num_ids)``
    contiguously: an overlap would duplicate edges, a gap would drop
    them — both yield a plausible-looking wrong result rather than a
    crash.  Empty ranges (``lo == hi``) are fine.
    """
    if num_ids == 0:
        return
    if not plan:
        raise ValueError("shard_plan must cover the entity-id space")
    cursor = 0
    for lo, hi in plan:
        if lo != cursor or hi < lo:
            raise ValueError(
                f"shard_plan must tile [0, {num_ids}) contiguously; "
                f"range ({lo}, {hi}) breaks at position {cursor}"
            )
        cursor = hi
    if cursor != num_ids:
        raise ValueError(
            f"shard_plan must tile [0, {num_ids}) contiguously; "
            f"coverage stops at {cursor}"
        )


class _Collector:
    """Where shard results land in the parent, keyed by plan position.

    Keeps a shard's edges and weights (spilled ones reopened as memmaps:
    pages fault in only as the merge copies them) and folds its BLAST
    maxima into one running array straight away — ``np.maximum`` is exact
    and order-free — so beside the candidates only one dense maxima array
    outlives a shard, however many shards the plan has.
    """

    def __init__(self, num_ids: int) -> None:
        self.shards: dict[int, tuple[ShardEdges, np.ndarray | None]] = {}
        self.maxima = np.zeros(num_ids, dtype=np.float64)

    def add(self, position: int, result: _ShardResult) -> None:
        edges, weights, maxima = result
        if maxima is not None:
            np.maximum(self.maxima, maxima, out=self.maxima)
        self.shards[position] = (resolve_shard(edges), load_array(weights))


def _run_serially(
    state: _SharedState,
    plan: list[tuple[int, int]],
    positions: list[int],
    spill: SpillSpec | None,
    collector: _Collector,
) -> None:
    """Run the shards at *positions* in-process, one at a time.

    The ``workers=1`` chunked mode and the degradation target of both
    dispatchers: each shard's arrays die before the next shard is built,
    only what the collector keeps survives.
    """
    for position in positions:
        lo, hi = plan[position]
        collector.add(position, _run_shard(state, lo, hi, spill))


def _degrade(
    state: _SharedState,
    plan: list[tuple[int, int]],
    pending: list[int],
    policy: RetryPolicy,
    last_error: BaseException | None,
    spill: SpillSpec | None,
    collector: _Collector,
) -> None:
    """Finish the shards no pool attempt completed, serially, with a warning."""
    if not pending:
        return
    warnings.warn(
        f"parallel backend: {len(pending)} shard(s) unfinished after "
        f"{policy.attempts} pool attempt(s) (last error: "
        f"{last_error!r}); degrading to serial in-process execution "
        "for those shards (results remain bit-identical)",
        RuntimeWarning,
        stacklevel=4,
    )
    _run_serially(state, plan, pending, spill, collector)


def _dispatch_shards(
    state: _SharedState,
    plan: list[tuple[int, int]],
    workers: int,
    policy: RetryPolicy,
    spill: SpillSpec | None,
    collector: _Collector,
) -> None:
    """Run every shard of *plan*, surviving worker death and stuck tasks.

    The dispatch state machine (DESIGN.md "Reliability & recovery"):

    1. **dispatch** — every unfinished shard is submitted to a pool via
       ``apply_async``; each result is awaited with the policy's
       per-attempt timeout.
    2. **retry** — shards whose result raised (a worker-side exception,
       a broken pipe from a killed worker) or timed out (a lost or stuck
       task) are retried on a *freshly built* pool after a deterministic
       seeded backoff, up to ``policy.max_retries`` times; shards that
       completed are never recomputed.
    3. **degrade** — shards still unfinished after the last retry run
       serially in-process through the identical pure kernel
       (:func:`_run_shard`), so the run completes with the exact arrays a
       fault-free run would have produced.

    Pools are torn down deterministically on every path: ``close()`` after
    a clean batch, ``terminate()`` when anything failed (a timed-out task
    would otherwise keep its worker busy forever), and ``join()`` always —
    no leaked workers or semaphores for ``pytest -x`` to trip over.
    """
    pending = list(range(len(plan)))
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
            initargs=(state, spill),
        )
        clean = True
        try:
            handles = [
                (index, pool.apply_async(_run_shard_in_worker, (plan[index],)))
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
                    clean = False
                    last_error = exc
                    unfinished.append(index)
            pending = unfinished
        finally:
            if clean:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    _degrade(state, plan, pending, policy, last_error, spill, collector)


def _dispatch_shards_persistent(
    state: _SharedState,
    plan: list[tuple[int, int]],
    workers: int,
    policy: RetryPolicy,
    spill: SpillSpec | None,
    collector: _Collector,
) -> None:
    """Run every shard of *plan* on the persistent pool.

    Same three-stage state machine as :func:`_dispatch_shards`
    (dispatch → retry with backoff → serial degrade), with two
    differences: workers reach the run's state through shared memory
    (:func:`_publish_job` / :func:`_run_shard_over_shm`) instead of an
    initializer pickle, and an unclean batch *restarts* the singleton
    pool (terminate + refork) rather than discarding a per-run one — a
    timed-out task would otherwise wedge a reused worker forever, and
    restarting also drops any stale shared-memory attachments with the
    dead workers' address spaces.
    """
    spec_name = _publish_job(state, spill)
    pending = list(range(len(plan)))
    last_error: BaseException | None = None

    for attempt in range(policy.attempts):
        if not pending:
            break
        if attempt:
            time.sleep(policy.delay(attempt))
        pool = get_pool(workers)
        clean = True
        handles = [
            (
                index,
                pool.apply_async(
                    _run_shard_over_shm, ((spec_name, *plan[index]),)
                ),
            )
            for index in pending
        ]
        unfinished: list[int] = []
        for index, handle in handles:
            try:
                collector.add(index, handle.get(policy.task_timeout))
            except Exception as exc:
                clean = False
                last_error = exc
                unfinished.append(index)
        pending = unfinished
        if not clean:
            pool.restart()

    _degrade(state, plan, pending, policy, last_error, spill, collector)


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
    retry_policy: RetryPolicy | None = None,
    pool: str = "per-run",
    spill_dir: str | None = None,
    spill_threshold_mb: float | None = None,
) -> list[Edge]:
    """The ``parallel`` meta-blocking backend: sorted retained edges.

    Bit-identical to :func:`repro.graph.vectorized.vectorized_metablocking`
    (and hence to the ``python`` oracle) for every weighting scheme and
    built-in pruning strategy — including under worker death, stuck
    tasks, and injected faults (failed shards are retried, then degraded
    to serial execution of the identical kernel; see
    :func:`_dispatch_shards`).  Unsupported components delegate to the
    reference path.

    Parameters
    ----------
    workers:
        Worker processes; ``None`` means the machine's cpu count, ``1``
        runs the shards sequentially in-process (the chunked low-memory
        mode — no pool, no pickling).  Must be positive or ``None``.
    shard_size:
        Cap on the comparisons enumerated per shard (strict, except that
        a single entity owning more than the cap becomes a shard of its
        own); bounds the peak per-shard edge-array bytes.  ``None``
        splits the id space into one balanced shard per worker.
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
        shards to serial execution (default 2).
    retry_policy:
        Full :class:`~repro.reliability.RetryPolicy` override (timeout,
        retries, seeded backoff).  Mutually exclusive with the
        ``task_timeout``/``max_retries`` shorthands.
    pool:
        ``"per-run"`` (default) builds and tears down a pool per call;
        ``"persistent"`` reuses the process-wide pool and ships the CSR
        arrays through shared memory, published once per index — the
        amortized mode for pipelines that meta-block repeatedly.
    spill_dir / spill_threshold_mb:
        Set together to arm the out-of-core tier: shard and merged
        arrays above the megabyte budget stream to atomic ``.npy`` files
        under a private subdirectory of *spill_dir* (removed on every
        exit path), bounding peak RSS with bit-identical results.
    """
    if isinstance(weighting, str):
        weighting = WeightingScheme(weighting)
    if not isinstance(weighting, WeightingScheme) or not supports_pruning(
        pruning
    ):
        from repro.graph.metablocking import reference_metablocking

        return reference_metablocking(
            collection,
            weighting=weighting,
            pruning=pruning,
            entropy_boost=entropy_boost,
            key_entropy=key_entropy,
        )
    if shard_size is not None and shard_size < 1:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    if pool not in ("per-run", "persistent"):
        raise ValueError(
            f"pool must be 'per-run' or 'persistent', got {pool!r}"
        )
    if (spill_dir is None) != (spill_threshold_mb is None):
        raise ValueError(
            "spill_dir and spill_threshold_mb must be set together"
        )
    if retry_policy is None:
        retry_policy = RetryPolicy(
            max_retries=2 if max_retries is None else max_retries,
            task_timeout=task_timeout,
        )
    elif task_timeout is not None or max_retries is not None:
        raise ValueError(
            "pass either retry_policy or task_timeout/max_retries, not both"
        )
    workers = resolve_workers(workers)

    index = collection.entity_index
    # EntityIndex caches its shardable view, so repeated runs within one
    # pipeline share a single ShardableIndex object — the identity token
    # the persistent pool's publication cache keys on.
    slim = index.shardable
    plan = (
        shard_plan
        if shard_plan is not None
        else plan_shards(slim, num_shards=workers, max_pairs=shard_size)
    )

    if shard_plan is not None:
        _validate_plan(plan, slim.num_ids)

    needs_entropy = weighting is WeightingScheme.CHI_H or entropy_boost
    block_entropies = (
        index.block_entropies(key_entropy) if needs_entropy else None
    )
    need_arcs = weighting is WeightingScheme.ARCS
    # EJS mixes global degree statistics into every edge; its weights are
    # evaluated in the parent over the merged arrays instead of per shard.
    weight_in_worker = weighting is not WeightingScheme.EJS
    # BLAST's threshold rests on per-node maxima — an exact, order-free
    # reduction — so shards that hold their weights pre-prune (exact type
    # only: a subclass may override the rule).
    blast = (
        (pruning.c, pruning.d)
        if type(pruning) is BlastPruning and weight_in_worker
        else None
    )
    counts = index.node_block_counts
    state = _SharedState(
        index=slim,
        block_entropies=block_entropies,
        need_arcs=need_arcs,
        scheme=weighting.value if weight_in_worker else None,
        entropy_boost=entropy_boost,
        node_block_counts=counts if weight_in_worker else None,
        num_blocks=index.num_blocks,
        blast=blast,
    )

    spill_job = (
        SpillJob(spill_dir, spill_threshold_mb)
        if spill_dir is not None and spill_threshold_mb is not None
        else None
    )
    spill = spill_job.spec if spill_job is not None else None
    try:
        plan = list(plan)
        collector = _Collector(slim.num_ids)
        if workers > 1 and len(plan) > 1:
            dispatch = (
                _dispatch_shards_persistent
                if pool == "persistent"
                else _dispatch_shards
            )
            dispatch(state, plan, workers, retry_policy, spill, collector)
        else:
            _run_serially(
                state, plan, list(range(len(plan))), spill, collector
            )

        # Every position is filled: by a worker, or serially on degrade.
        results = [collector.shards[position] for position in range(len(plan))]
        edges = merge_shards([edges for edges, _ in results], spill)
        if weight_in_worker:
            shard_weights = [
                weights for _, weights in results if weights is not None
            ]
            weights = (
                concat_spillable(shard_weights, spill, "merged-weights")
                if shard_weights
                else np.zeros(0, dtype=np.float64)
            )
        else:
            degrees = edge_degrees(edges.src, edges.dst, counts.size)
            weights = compute_edge_weights(
                WeightingScheme.EJS,
                shared=edges.shared,
                blocks_i=counts[edges.src],
                blocks_j=counts[edges.dst],
                num_blocks=index.num_blocks,
                entropy_mass=edges.entropy_mass,
                degrees_src=degrees[edges.src],
                degrees_dst=degrees[edges.dst],
                num_edges=edges.num_edges,
                entropy_boost=entropy_boost,
            )

        if blast is not None:
            # The merged arrays hold the shards' candidates only; the
            # decision is the serial one — same test, global maxima.
            c, d = blast
            mask = blast_retain_mask(
                collector.maxima, edges.src, edges.dst, weights, c=c, d=d
            )
        else:
            graph = _MergedGraph(
                src=edges.src,
                dst=edges.dst,
                node_blocks=counts,
                num_nodes=index.num_indexed_profiles,
            )
            mask = prune_mask(pruning, graph, weights)
        return list(zip(edges.src[mask].tolist(), edges.dst[mask].tolist()))
    finally:
        if spill_job is not None:
            spill_job.cleanup()
