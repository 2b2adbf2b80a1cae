"""Shared machinery of the differential conformance suite (test helper).

The suite treats the pure-python ``python`` backend as the oracle and
checks every other registered backend against it across the full
(blocker x weighting x pruning) matrix, on one small synthetic
clean-clean task and one dirty task.  Block collections and oracle edge
sets are cached per combination so the matrix stays fast: each test case
runs exactly one non-oracle backend call plus two cached lookups.
"""

from __future__ import annotations

from functools import lru_cache

from repro.blocking.schema_aware import make_key_entropy
from repro.core import BlastConfig
from repro.core.registry import BACKENDS, BLOCKERS, PRUNERS, WEIGHTINGS
from repro.core.stages import (
    BlockFilteringStage,
    BlockPurgingStage,
    Pipeline,
    PipelineContext,
    SchemaExtraction,
)
from repro.datasets import load_clean_clean, load_dirty
from repro.graph.pruning import PruningScheme

#: The oracle backend every other backend must match edge-for-edge.
ORACLE = "python"

#: Per-backend extra options used throughout the matrix.  The parallel
#: backend runs its shards sequentially in-process (workers=1) with a
#: tiny shard cap, so every case still exercises multi-shard planning and
#: merging without paying process startup 800 times; dedicated tests in
#: test_matrix.py cover the real worker pool.
BACKEND_OPTIONS: dict[str, dict] = {
    "parallel": {"workers": 1, "shard_size": 13},
}

#: The two synthetic tasks of the matrix (name -> loader thunk).
DATASETS = {
    "clean-clean": lambda: load_clean_clean("ar1", scale=0.05, seed=11),
    "dirty": lambda: load_dirty("cora", scale=0.05, seed=11),
}

_CONFIG = BlastConfig(seed=7)


@lru_cache(maxsize=None)
def dataset_of(name: str):
    return DATASETS[name]()


@lru_cache(maxsize=None)
def prepared_blocks(dataset_name: str, blocker: str):
    """(blocks, key_entropy) after blocker -> purging -> filtering."""
    dataset = dataset_of(dataset_name)
    blocking_stage = BLOCKERS.get(blocker)(_CONFIG)
    stages = []
    if getattr(blocking_stage, "needs_partitioning", False):
        stages.append(SchemaExtraction(_CONFIG))
    stages.extend(
        [blocking_stage, BlockPurgingStage(), BlockFilteringStage()]
    )
    context = PipelineContext(dataset)
    Pipeline(stages).execute(context)
    key_entropy = (
        make_key_entropy(context.partitioning)
        if context.partitioning is not None
        else None
    )
    return context.blocks, key_entropy


@lru_cache(maxsize=None)
def oracle_edges(dataset_name: str, blocker: str, weighting: str, pruning: str):
    """The reference backend's retained edges, sorted (cached)."""
    blocks, key_entropy = prepared_blocks(dataset_name, blocker)
    return run_backend(
        ORACLE, blocks, key_entropy, weighting=weighting, pruning=pruning
    )


def run_backend(backend: str, blocks, key_entropy, *, weighting: str,
                pruning: str, **extra):
    """One backend invocation from registry names, with per-backend options."""
    options = dict(BACKEND_OPTIONS.get(backend, {}))
    options.update(extra)
    return BACKENDS.get(backend)(
        blocks,
        weighting=WEIGHTINGS.get(weighting),
        pruning=PRUNERS.get(pruning)(_CONFIG),
        key_entropy=key_entropy,
        **options,
    )


def matrix_params():
    """Every (dataset, blocker, weighting, pruning, backend) combination.

    Built from the live registries, so a newly registered component joins
    the conformance matrix automatically.  A pruning that resolves to a
    whole meta-blocking stage (``supervised``) runs on no backend, so it
    is not a matrix axis.
    """
    prunings = [
        name for name in PRUNERS.names()
        if isinstance(PRUNERS.get(name)(_CONFIG), PruningScheme)
    ]
    return [
        (dataset, blocker, weighting, pruning, backend)
        for dataset in DATASETS
        for blocker in BLOCKERS.names()
        for weighting in WEIGHTINGS.names()
        for pruning in prunings
        for backend in BACKENDS.names()
        if backend != ORACLE
    ]
