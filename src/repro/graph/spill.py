"""Out-of-core shard spilling: bounded peak RSS, bit-identical results.

The parallel backend's memory high-water mark is the moment every
shard's edge/weight arrays coexist for the concatenation merge — at
DBpedia scale that sum dwarfs the CSR index itself.  This module lets
each shard's output *spill* to an ``.npy`` file once it crosses a byte
budget, and lets the merge write its concatenated outputs into
``np.memmap``-backed arrays, so the resident set at any instant is one
shard plus the index, not the whole edge list.

Determinism is inherited, not re-proven: the single-owner shard rule of
:mod:`repro.graph.sharding` already fixes the *order* of every edge,
and the merge here is a preallocate-and-copy concatenation — byte-wise
the same operation as ``np.concatenate``, independent of whether the
inputs arrive as heap arrays or read-only memmaps.  The bit-identity
suites assert exactly that.

Spill files are written atomically (``<stem>.<pid>.tmp.npy`` then
``os.replace``) so a killed worker can never leave a torn file where a
retry would read it, and every job's files live under one
``tempfile.mkdtemp`` directory removed by :meth:`SpillJob.cleanup` on
every exit path.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np
from numpy.lib.format import open_memmap

from .sharding import ShardEdges

__all__ = [
    "MB",
    "SpillJob",
    "SpillSpec",
    "SpilledArray",
    "SpilledShardEdges",
    "concat_spillable",
    "load_array",
    "resolve_shard",
    "spill_array",
    "spill_shard",
]

MB = 1024 * 1024


@dataclass(frozen=True)
class SpillSpec:
    """Picklable spill policy: where to write, and above how many bytes.

    Travels to workers with the run's shared state; arrays whose total
    size stays under ``threshold_bytes`` never touch disk.
    """

    directory: str
    threshold_bytes: int


class SpillJob:
    """One run's private spill directory, created eagerly, removed always.

    ``spill_dir`` is the *parent*: each job mkdtemps its own
    ``repro-spill-*`` subdirectory there, so concurrent runs (and
    retried attempts) never collide, and :meth:`cleanup` can remove the
    whole tree without inspecting contents.
    """

    def __init__(self, spill_dir: str, spill_threshold_mb: float) -> None:
        if spill_threshold_mb <= 0:
            raise ValueError(
                f"spill_threshold_mb must be positive, got {spill_threshold_mb}"
            )
        os.makedirs(spill_dir, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="repro-spill-", dir=spill_dir)
        self.spec = SpillSpec(
            directory=self.directory,
            threshold_bytes=int(spill_threshold_mb * MB),
        )

    def cleanup(self) -> None:
        """Remove the job directory and everything in it (idempotent)."""
        shutil.rmtree(self.directory, ignore_errors=True)


@dataclass(frozen=True)
class SpilledArray:
    """A by-path reference to one spilled ``.npy`` array."""

    path: str


def spill_array(array: np.ndarray, directory: str, stem: str) -> SpilledArray:
    """Write *array* to ``<directory>/<stem>.npy`` atomically.

    The write goes to a pid-suffixed temp name first and is published
    with ``os.replace`` — a worker killed mid-write leaves only the temp
    file (swept with the job directory), never a torn ``.npy`` that a
    retry or the merge would load.
    """
    final = os.path.join(directory, f"{stem}.npy")
    tmp = os.path.join(directory, f"{stem}.{os.getpid()}.tmp.npy")
    with open(tmp, "wb") as handle:
        np.save(handle, np.ascontiguousarray(array))
    os.replace(tmp, final)
    return SpilledArray(final)


def load_array(value: np.ndarray | SpilledArray | None) -> np.ndarray | None:
    """Materialize a maybe-spilled array as a (possibly memmapped) ndarray.

    Spilled arrays come back via ``np.load(..., mmap_mode="r")`` — pages
    fault in as the merge copies them, so loading N spilled shards does
    not resurrect the RSS spike spilling existed to avoid.
    """
    if value is None or isinstance(value, np.ndarray):
        return value
    result: np.ndarray = np.load(value.path, mmap_mode="r")
    return result


@dataclass(frozen=True)
class SpilledShardEdges:
    """The :class:`~repro.graph.sharding.ShardEdges` fields, spilled."""

    src: SpilledArray
    dst: SpilledArray
    shared: SpilledArray | None
    arcs_mass: SpilledArray | None
    entropy_mass: SpilledArray | None


def spill_shard(
    edges: ShardEdges,
    weights: np.ndarray | None,
    spec: SpillSpec | None,
    tag: str,
) -> tuple[ShardEdges | SpilledShardEdges, np.ndarray | SpilledArray | None]:
    """Spill one shard's output if it exceeds the byte budget.

    *tag* must be unique per shard within the job (the shard's ``lo``
    bound is — plans tile the id range); below-threshold shards return
    unchanged, so small jobs never pay any IO.
    """
    if spec is None:
        return edges, weights
    arrays = (
        edges.src,
        edges.dst,
        edges.shared,
        edges.arcs_mass,
        edges.entropy_mass,
        weights,
    )
    total = sum(array.nbytes for array in arrays if array is not None)
    if total <= spec.threshold_bytes:
        return edges, weights

    def spill(array: np.ndarray | None, name: str) -> SpilledArray | None:
        if array is None:
            return None
        return spill_array(array, spec.directory, f"{tag}-{name}")

    spilled = SpilledShardEdges(
        src=spill_array(edges.src, spec.directory, f"{tag}-src"),
        dst=spill_array(edges.dst, spec.directory, f"{tag}-dst"),
        shared=spill(edges.shared, "shared"),
        arcs_mass=spill(edges.arcs_mass, "arcs"),
        entropy_mass=spill(edges.entropy_mass, "entropy"),
    )
    return spilled, spill(weights, "weights")


def resolve_shard(edges: ShardEdges | SpilledShardEdges) -> ShardEdges:
    """Reopen a maybe-spilled shard as (memmap-backed) :class:`ShardEdges`."""
    if isinstance(edges, ShardEdges):
        return edges
    src = load_array(edges.src)
    dst = load_array(edges.dst)
    assert src is not None and dst is not None
    return ShardEdges(
        src=src,
        dst=dst,
        shared=load_array(edges.shared),
        arcs_mass=load_array(edges.arcs_mass),
        entropy_mass=load_array(edges.entropy_mass),
    )


def concat_spillable(
    arrays: list[np.ndarray],
    spec: SpillSpec | None,
    stem: str,
) -> np.ndarray:
    """Concatenate shard arrays, memmap-backed when over the spill budget.

    Preallocate-and-copy in shard order is byte-for-byte what
    ``np.concatenate`` produces (same dtype promotion rules are never
    invoked — all shards share a dtype by construction), so the merged
    array is bit-identical whether it lands on the heap or in an
    ``open_memmap`` file.  Sequential per-shard copies also mean at most
    one source shard is resident at a time when the inputs are memmaps.
    *arrays* is never empty: every plan has at least one shard.
    """
    total = sum(a.shape[0] for a in arrays)
    nbytes = sum(a.nbytes for a in arrays)
    if spec is not None and nbytes > spec.threshold_bytes:
        out: np.ndarray = open_memmap(
            os.path.join(spec.directory, f"{stem}.npy"),
            mode="w+",
            dtype=arrays[0].dtype,
            shape=(total,),
        )
    else:
        out = np.empty(total, dtype=arrays[0].dtype)
    cursor = 0
    for chunk in arrays:
        out[cursor : cursor + chunk.shape[0]] = chunk
        cursor += chunk.shape[0]
    return out
