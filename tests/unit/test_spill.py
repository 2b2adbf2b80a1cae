"""Unit tests: out-of-core spill files and the memmap-backed merge.

Whole-pipeline bit-identity of the spill tier is asserted by the
conformance ``TestSpillMode`` class and the parallel property suite;
these tests pin the file-level mechanics — atomic publication,
threshold gating, cleanup — on hand-sized arrays.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.graph.sharding import ShardEdges
from repro.graph.spill import (
    MB,
    SpillJob,
    SpillSpec,
    SpilledArray,
    SpilledShardEdges,
    concat_spillable,
    load_array,
    resolve_shard,
    spill_array,
    spill_shard,
)


def _edges(n: int, with_mass: bool = True) -> ShardEdges:
    rng = np.random.default_rng(7)
    return ShardEdges(
        src=np.arange(n, dtype=np.int64),
        dst=np.arange(n, dtype=np.int64)[::-1].copy(),
        shared=rng.integers(1, 5, size=n).astype(np.int64),
        arcs_mass=rng.random(n) if with_mass else None,
        entropy_mass=rng.random(n) if with_mass else None,
    )


class TestSpillJob:
    def test_creates_private_subdirectory(self, tmp_path):
        job = SpillJob(str(tmp_path), spill_threshold_mb=1.0)
        try:
            assert os.path.isdir(job.directory)
            assert os.path.dirname(job.directory) == str(tmp_path)
            assert os.path.basename(job.directory).startswith("repro-spill-")
            assert job.spec == SpillSpec(
                directory=job.directory, threshold_bytes=MB
            )
        finally:
            job.cleanup()

    def test_concurrent_jobs_do_not_collide(self, tmp_path):
        first = SpillJob(str(tmp_path), spill_threshold_mb=1.0)
        second = SpillJob(str(tmp_path), spill_threshold_mb=1.0)
        try:
            assert first.directory != second.directory
        finally:
            first.cleanup()
            second.cleanup()

    def test_cleanup_removes_tree_and_is_idempotent(self, tmp_path):
        job = SpillJob(str(tmp_path), spill_threshold_mb=1.0)
        spill_array(np.arange(10, dtype=np.int64), job.directory, "x")
        job.cleanup()
        assert not os.path.exists(job.directory)
        job.cleanup()  # second call must not raise

    def test_rejects_nonpositive_threshold(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            SpillJob(str(tmp_path), spill_threshold_mb=0)

    def test_creates_missing_parent(self, tmp_path):
        parent = tmp_path / "nested" / "spill"
        job = SpillJob(str(parent), spill_threshold_mb=1.0)
        try:
            assert os.path.isdir(job.directory)
        finally:
            job.cleanup()


class TestSpillArray:
    def test_round_trip_and_no_temp_leftovers(self, tmp_path):
        original = np.linspace(0.0, 1.0, 50)
        spilled = spill_array(original, str(tmp_path), "weights")
        assert spilled.path == str(tmp_path / "weights.npy")
        assert sorted(os.listdir(tmp_path)) == ["weights.npy"]  # no .tmp
        loaded = load_array(spilled)
        assert isinstance(loaded, np.memmap)
        assert np.array_equal(loaded, original)

    def test_load_array_passthrough(self):
        array = np.arange(4, dtype=np.int64)
        assert load_array(array) is array
        assert load_array(None) is None


class TestSpillShard:
    def test_below_threshold_returns_inputs_unchanged(self, tmp_path):
        edges = _edges(8)
        weights = np.ones(8)
        spec = SpillSpec(directory=str(tmp_path), threshold_bytes=MB)
        out_edges, out_weights = spill_shard(edges, weights, spec, "shard-0")
        assert out_edges is edges
        assert out_weights is weights
        assert os.listdir(tmp_path) == []

    def test_no_spec_is_a_no_op(self, tmp_path):
        edges = _edges(8)
        out_edges, out_weights = spill_shard(edges, None, None, "shard-0")
        assert out_edges is edges
        assert out_weights is None

    def test_above_threshold_spills_and_round_trips(self, tmp_path):
        edges = _edges(64)
        weights = np.random.default_rng(3).random(64)
        spec = SpillSpec(directory=str(tmp_path), threshold_bytes=1)
        out_edges, out_weights = spill_shard(edges, weights, spec, "shard-0")
        assert isinstance(out_edges, SpilledShardEdges)
        assert isinstance(out_weights, SpilledArray)
        restored = resolve_shard(out_edges)
        assert np.array_equal(restored.src, edges.src)
        assert np.array_equal(restored.dst, edges.dst)
        assert np.array_equal(restored.shared, edges.shared)
        assert np.array_equal(restored.arcs_mass, edges.arcs_mass)
        assert np.array_equal(restored.entropy_mass, edges.entropy_mass)
        loaded_weights = load_array(out_weights)
        assert np.array_equal(loaded_weights, weights)

    def test_optional_mass_arrays_stay_none(self, tmp_path):
        edges = _edges(32, with_mass=False)
        spec = SpillSpec(directory=str(tmp_path), threshold_bytes=1)
        out_edges, _ = spill_shard(edges, None, spec, "shard-0")
        assert isinstance(out_edges, SpilledShardEdges)
        assert out_edges.arcs_mass is None
        assert out_edges.entropy_mass is None
        restored = resolve_shard(out_edges)
        assert restored.arcs_mass is None
        assert restored.entropy_mass is None

    def test_resolve_shard_passthrough_for_heap_edges(self):
        edges = _edges(4)
        assert resolve_shard(edges) is edges


class TestConcatSpillable:
    def _chunks(self) -> list[np.ndarray]:
        rng = np.random.default_rng(11)
        return [rng.integers(0, 100, size=n).astype(np.int64) for n in (5, 0, 9, 3)]

    def test_heap_path_matches_concatenate(self):
        chunks = self._chunks()
        merged = concat_spillable(chunks, None, "merged")
        expected = np.concatenate(chunks)
        assert merged.dtype == expected.dtype
        assert np.array_equal(merged, expected)

    def test_memmap_path_is_bit_identical(self, tmp_path):
        chunks = self._chunks()
        spec = SpillSpec(directory=str(tmp_path), threshold_bytes=1)
        merged = concat_spillable(chunks, spec, "merged")
        expected = np.concatenate(chunks)
        assert isinstance(merged, np.memmap)
        assert merged.dtype == expected.dtype
        assert merged.tobytes() == expected.tobytes()

    def test_under_budget_stays_on_heap(self, tmp_path):
        chunks = self._chunks()
        spec = SpillSpec(directory=str(tmp_path), threshold_bytes=MB)
        merged = concat_spillable(chunks, spec, "merged")
        assert not isinstance(merged, np.memmap)
        assert os.listdir(tmp_path) == []

    def test_memmap_inputs_merge_identically(self, tmp_path):
        chunks = self._chunks()
        spilled = [
            load_array(spill_array(chunk, str(tmp_path), f"chunk-{i}"))
            for i, chunk in enumerate(chunks)
        ]
        merged = concat_spillable(spilled, None, "merged")
        assert np.array_equal(merged, np.concatenate(chunks))
