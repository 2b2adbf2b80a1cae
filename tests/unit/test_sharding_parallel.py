"""Unit tests: entity-range sharding and the parallel backend's plumbing.

The equivalence contract itself is enforced exhaustively by the
conformance matrix (tests/conformance) and the shard-invariance property
suite (tests/property/test_prop_parallel.py); these tests pin the
building blocks — enumeration, planning, options validation, fallback —
on small hand-checked inputs.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest
from _block_oracles import assert_same_edges
from _parallel_helpers import random_blocks, run_capturing_shards

from repro.blocking.base import build_blocks
from repro.core import BlastConfig
from repro.graph import MetaBlocker, WeightingScheme
from repro.graph.blocking_graph import BlockingGraph
from repro.graph.metablocking import reference_metablocking
from repro.graph.parallel import (
    _dispatch_shards,
    merge_shards,
    parallel_metablocking,
    resolve_workers,
)
from repro.graph.pruning import (
    BlastPruning,
    PruningScheme,
    WeightEdgePruning,
)
from repro.graph.sharding import (
    DEFAULT_SHARD_PAIRS,
    MAX_DEFAULT_SHARDS,
    ShardableIndex,
    ShardEdges,
    ShardWorkspace,
    default_plan,
    enumerate_shard_pairs,
    pair_counts_by_entity,
    plan_shards,
    shard_edge_arrays,
)
from repro.graph.vectorized import (
    ArrayPruning,
    Collector,
    SharedState,
    array_pruning,
    run_in_process,
    run_shard,
    vectorized_metablocking,
)
from repro.reliability import RetryPolicy


@pytest.fixture
def dirty_blocks():
    return build_blocks(
        {"a": {0, 1, 2}, "b": {1, 2, 3}, "c": {0, 3}, "d": {2, 3, 4}},
        is_clean_clean=False,
    )


@pytest.fixture
def clean_blocks():
    return build_blocks(
        {"a": ({0, 1}, {3, 4}), "b": ({1, 2}, {4}), "c": ({0}, {3, 5})},
        is_clean_clean=True,
    )


def _pairs_with_blocks(slim, lo, hi, workspace=None):
    """``(src, dst, block)`` per pair of the shard ``[lo, hi)``."""
    src, dst, run_block, run_length = enumerate_shard_pairs(slim, lo, hi, workspace)
    return src, dst, np.repeat(run_block, run_length)


class TestEnumeration:
    def test_full_range_equals_entity_index(self, dirty_blocks, clean_blocks):
        # The whole id space as one shard is the python enumeration:
        # block-major, Block.iter_pairs() order within each block.
        for blocks in (dirty_blocks, clean_blocks):
            slim = ShardableIndex.from_entity_index(blocks.entity_index)
            src, dst, pair_block = _pairs_with_blocks(slim, 0, slim.num_ids)
            expected = [
                (*pair, position)
                for position, block in enumerate(blocks)
                for pair in block.iter_pairs()
            ]
            assert expected == list(
                zip(src.tolist(), dst.tolist(), pair_block.tolist())
            )

    def test_shards_partition_the_pairs(self, dirty_blocks, clean_blocks):
        for blocks in (dirty_blocks, clean_blocks):
            slim = ShardableIndex.from_entity_index(blocks.entity_index)
            full_src, full_dst, *_ = enumerate_shard_pairs(slim, 0, slim.num_ids)
            full = sorted(zip(full_src.tolist(), full_dst.tolist()))
            pieces = []
            for lo, hi in plan_shards(slim, num_shards=3):
                src, dst, *_ = enumerate_shard_pairs(slim, lo, hi)
                assert np.all((src >= lo) & (src < hi))
                pieces.extend(zip(src.tolist(), dst.tolist()))
            assert sorted(pieces) == full

    def test_empty_range_yields_no_pairs(self, dirty_blocks):
        slim = ShardableIndex.from_entity_index(dirty_blocks.entity_index)
        src, dst, pair_block = _pairs_with_blocks(slim, 2, 2)
        assert src.size == dst.size == pair_block.size == 0

    def test_every_range_is_the_restricted_enumeration(
        self, dirty_blocks, clean_blocks
    ):
        # All ranges of the id space: empty (lo == hi), single-entity,
        # E2-only (clean-clean ids 3..5 own no pair) and everything
        # between, one workspace reused across them all.
        for blocks in (dirty_blocks, clean_blocks):
            slim = blocks.entity_index.shardable
            every = [
                (*pair, position)
                for position, block in enumerate(blocks)
                for pair in block.iter_pairs()
            ]
            workspace = ShardWorkspace()
            n = slim.num_ids
            for lo in range(n + 1):
                for hi in range(lo, n + 1):
                    src, dst, pair_block = _pairs_with_blocks(
                        slim, lo, hi, workspace
                    )
                    assert list(
                        zip(src.tolist(), dst.tolist(), pair_block.tolist())
                    ) == [pair for pair in every if lo <= pair[0] < hi]


class TestPairCounts:
    def test_counts_sum_to_aggregate_cardinality(
        self, dirty_blocks, clean_blocks
    ):
        for blocks in (dirty_blocks, clean_blocks):
            index = blocks.entity_index
            counts = pair_counts_by_entity(
                ShardableIndex.from_entity_index(index)
            )
            assert int(counts.sum()) == index.total_comparisons

    def test_clean_clean_right_side_owns_nothing(self, clean_blocks):
        counts = pair_counts_by_entity(
            ShardableIndex.from_entity_index(clean_blocks.entity_index)
        )
        # E2 ids (3, 4, 5) never appear as src.
        assert counts[3] == counts[4] == counts[5] == 0


class TestPlanner:
    def test_single_shard_covers_everything(self, dirty_blocks):
        slim = ShardableIndex.from_entity_index(dirty_blocks.entity_index)
        assert plan_shards(slim) == [(0, slim.num_ids)]

    def test_requested_shard_count_is_an_upper_bound(self, dirty_blocks):
        slim = ShardableIndex.from_entity_index(dirty_blocks.entity_index)
        plan = plan_shards(slim, num_shards=3)
        assert 1 <= len(plan) <= 3
        assert plan[0][0] == 0 and plan[-1][1] == slim.num_ids

    def test_invalid_arguments_rejected(self, dirty_blocks):
        slim = ShardableIndex.from_entity_index(dirty_blocks.entity_index)
        with pytest.raises(ValueError, match="num_shards"):
            plan_shards(slim, num_shards=0)
        with pytest.raises(ValueError, match="max_pairs"):
            plan_shards(slim, max_pairs=0)

    def test_accepts_a_raw_entity_index(self, dirty_blocks):
        # Convenience: EntityIndex (not just ShardableIndex) works too.
        plan = plan_shards(dirty_blocks.entity_index, num_shards=2)
        assert plan[0][0] == 0


def _shard_comparisons(index, plan) -> list[int]:
    counts = pair_counts_by_entity(index)
    return [int(counts[lo:hi].sum()) for lo, hi in plan]


class TestDefaultPlan:
    """The one rule behind every unset ``shard_size``."""

    @pytest.fixture(scope="class")
    def big_index(self):
        # About the batch_clean benchmark input: 1.57 M comparisons.
        blocks = random_blocks(3, profiles=9000, blocks=5600, largest=40)
        index = blocks.entity_index.shardable
        assert 1_500_000 < index.block_comparisons.sum() <= 1_600_000
        return index

    def test_a_tiny_input_plans_one_shard(self, dirty_blocks):
        index = dirty_blocks.entity_index
        assert default_plan(index) == [(0, index.node_block_counts.size)]

    def test_an_empty_id_space_plans_one_empty_shard(self):
        empty = build_blocks({}, is_clean_clean=False)
        assert default_plan(empty.entity_index) == [(0, 0)]

    def test_default_cap_bounds_every_shard_of_the_benchmark_input(
        self, big_index
    ):
        plan = default_plan(big_index)
        assert len(plan) == 48
        assert max(_shard_comparisons(big_index, plan)) <= DEFAULT_SHARD_PAIRS

    def test_workers_still_tighten_the_cap(self, big_index, dirty_blocks):
        total = int(big_index.block_comparisons.sum())
        plan = default_plan(big_index, num_shards=32)
        assert len(plan) >= 32
        assert max(_shard_comparisons(big_index, plan)) <= -(-total // 32)
        # ... on a tiny input too: two workers, two shards.
        assert len(default_plan(dirty_blocks.entity_index, num_shards=2)) >= 2

    def test_explicit_shard_size_is_plan_shards(self, big_index):
        assert default_plan(big_index, max_pairs=250_000) == plan_shards(
            big_index, max_pairs=250_000
        )

    def test_shard_count_is_bounded_on_huge_inputs(self):
        # 200 blocks of 1,000 members: 99.9 M comparisons, none enumerated.
        keyed = {
            f"k{b}": set(range(b * 500, b * 500 + 1000)) for b in range(200)
        }
        index = build_blocks(keyed, is_clean_clean=False).entity_index
        assert index.total_comparisons > MAX_DEFAULT_SHARDS * DEFAULT_SHARD_PAIRS
        plan = default_plan(index)
        cap = -(-index.total_comparisons // MAX_DEFAULT_SHARDS)
        assert MAX_DEFAULT_SHARDS <= len(plan) <= MAX_DEFAULT_SHARDS + 8
        assert max(_shard_comparisons(index, plan)) <= cap


class TestShardEdges:
    def test_masses_are_opt_in(self, dirty_blocks):
        slim = ShardableIndex.from_entity_index(dirty_blocks.entity_index)
        bare = shard_edge_arrays(slim, 0, slim.num_ids)
        assert bare.arcs_mass is None and bare.entropy_mass is None
        full = shard_edge_arrays(
            slim,
            0,
            slim.num_ids,
            need_arcs=True,
            block_entropies=np.ones(slim.num_blocks),
        )
        assert full.arcs_mass is not None and full.entropy_mass is not None
        assert full.num_edges == bare.num_edges

    def test_merge_of_no_shards_is_empty(self):
        merged = merge_shards([])
        assert merged.num_edges == 0


def _random_clean_blocks(seed, *, profiles, blocks, largest):
    rng = np.random.default_rng(seed)
    return build_blocks(
        {
            f"k{position}": (
                set(rng.choice(profiles, rng.integers(1, largest), replace=False)),
                set(
                    profiles
                    + rng.choice(profiles, rng.integers(1, largest), replace=False)
                ),
            )
            for position in range(blocks)
        },
        is_clean_clean=True,
    )


class _KeepingCollector(Collector):
    """A collector that also keeps every raw shard result."""

    def __init__(self, pruning):
        super().__init__(pruning)
        self.raw = {}

    def add(self, position, result):
        super().add(position, result)
        self.raw[position] = result


class TestWorkspaceAliasing:
    """What leaves a shard never aliases the loop's reused workspace."""

    @pytest.fixture(
        params=["dirty", "clean"],
        scope="class",
    )
    def blocks(self, request):
        if request.param == "dirty":
            return random_blocks(5, profiles=300, blocks=150, largest=25)
        return _random_clean_blocks(5, profiles=150, blocks=120, largest=14)

    @staticmethod
    def _states(blocks):
        index = blocks.entity_index
        slim = index.shardable
        entropies = np.linspace(0.5, 2.0, index.num_blocks)
        weighted = dict(
            index=slim,
            block_entropies=entropies,
            need_arcs=False,
            scheme=WeightingScheme.CHI_H.value,
            node_block_counts=index.node_block_counts,
            num_blocks=index.num_blocks,
        )
        return {
            "full arrays": SharedState(
                index=slim, block_entropies=entropies, need_arcs=True
            ),
            "weighted slim": SharedState(
                **weighted, pruning=array_pruning(WeightEdgePruning())
            ),
            "blast candidates": SharedState(
                **weighted, pruning=array_pruning(BlastPruning(2.0, 2.0))
            ),
        }

    @pytest.mark.parametrize("runner", ["in-process", "pool"])
    def test_kept_results_equal_fresh_ones(self, blocks, runner):
        slim = blocks.entity_index.shardable
        plan = plan_shards(slim, max_pairs=1_500)
        assert len(plan) >= 4
        for shape, state in self._states(blocks).items():
            collector = _KeepingCollector(state.pruning)
            if runner == "pool":
                _dispatch_shards(
                    state, plan, collector, workers=2,
                    policy=RetryPolicy(max_retries=0, backoff_base=0.0),
                )
            else:
                run_in_process(state, plan, collector)
            # The reference: every shard built alone, in a private workspace.
            fresh = _KeepingCollector(state.pruning)
            for position, (lo, hi) in enumerate(plan):
                fresh.add(position, run_shard(state, lo, hi))
            kept_and_fresh = [
                (collector.merge(), fresh.merge()),
                ((collector.reduced,), (fresh.reduced,)),
            ]
            if runner == "in-process":  # a pool task may fold shards
                kept_and_fresh += [
                    (collector.raw[position], fresh.raw[position])
                    for position in range(len(plan))
                ]
            for kept, reference in kept_and_fresh:
                for a, b in zip(_arrays(kept), _arrays(reference), strict=True):
                    assert (a is None) == (b is None), shape
                    if b is not None:
                        assert a.tobytes() == b.tobytes(), shape
            if shape == "blast candidates":
                assert fresh.raw[0][2] is not None


class _ListingPruning(ArrayPruning):
    """Combines partials into the list of them, in fold order."""

    def combine(self, acc, partial):
        return (acc or []) + [partial]


def test_collector_folds_partials_in_plan_order():
    # A pool adds a retried or degraded task after later ones; the fold
    # still runs in plan order, as soon as every earlier position is in.
    collector = Collector(_ListingPruning(WeightEdgePruning()))
    empty = ShardEdges(np.zeros(0, np.int64), np.zeros(0, np.int64), None)
    folded = []
    for position in (2, 0, 3, 1):
        collector.add(position, (empty, np.zeros(0), position))
        folded.append(collector.reduced)
    assert folded == [None, [0], [0], [0, 1, 2, 3]]


def _arrays(result):
    """The arrays (or ``None``s) of a shard result or merged pair."""
    for item in result:
        if isinstance(item, ShardEdges):
            yield from vars(item).values()
        else:
            yield item


class TestResolveWorkers:
    def test_default_is_cpu_count(self):
        import os

        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_count_passes_through(self):
        assert resolve_workers(5) == 5

    def test_non_positive_rejected_like_the_config(self):
        # Same contract at every layer: positive or None (BlastConfig
        # rejects 0 too, so backend_options can never smuggle it in).
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(0)
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-1)


class TestParallelBackend:
    def test_invalid_shard_size_rejected(self, dirty_blocks):
        with pytest.raises(ValueError, match="shard_size"):
            parallel_metablocking(
                dirty_blocks, pruning=BlastPruning(), shard_size=0
            )

    def test_removed_spill_parameters_rejected(self, dirty_blocks):
        with pytest.raises(TypeError, match="spill_dir"):
            parallel_metablocking(
                dirty_blocks, pruning=BlastPruning(),
                spill_dir="x", spill_threshold_mb=1,
            )

    def test_empty_collection(self):
        empty = build_blocks({}, is_clean_clean=False)
        for plan in (None, []):
            retained = parallel_metablocking(
                empty, pruning=BlastPruning(), workers=1, shard_plan=plan
            )
            assert retained.dtype == np.int64 and retained.shape == (0, 2)

    @pytest.mark.parametrize("plan", [
        [],                      # nothing covered
        [(0, 3)],                # stops short of the id space
        [(0, 3), (2, 5)],        # overlap: would duplicate edges
        [(0, 2), (3, 5)],        # gap: would drop edges
        [(3, 2), (2, 5)],        # inverted range
    ])
    def test_corrupting_shard_plans_rejected(self, dirty_blocks, plan):
        # dirty_blocks spans profile ids 0..4, so num_ids is 5 and every
        # parametrized plan above fails to tile [0, 5) contiguously.
        assert dirty_blocks.entity_index.node_block_counts.size == 5
        with pytest.raises(ValueError, match="shard_plan"):
            parallel_metablocking(
                dirty_blocks, pruning=BlastPruning(), workers=1,
                shard_plan=plan,
            )

    def test_custom_pruning_falls_back_to_reference(self, dirty_blocks):
        class TopOne(PruningScheme):
            def prune(self, graph, weights):
                best = max(weights, key=lambda e: (weights[e], e))
                return {best}

        assert_same_edges(
            parallel_metablocking(dirty_blocks, pruning=TopOne(), workers=1),
            reference_metablocking(dirty_blocks, pruning=TopOne()),
        )

    def test_custom_weighting_falls_back_to_reference(self, dirty_blocks):
        def inverse_degree(graph: BlockingGraph):
            return {
                edge: 1.0 / (graph.degrees[edge[0]] + graph.degrees[edge[1]])
                for edge, _ in graph.edges()
            }

        assert_same_edges(
            parallel_metablocking(
                dirty_blocks, weighting=inverse_degree, pruning=BlastPruning(),
                workers=1,
            ),
            reference_metablocking(
                dirty_blocks, weighting=inverse_degree, pruning=BlastPruning()
            ),
        )

    def test_scheme_accepted_by_name(self, dirty_blocks):
        assert_same_edges(
            parallel_metablocking(
                dirty_blocks, weighting="cbs", pruning=BlastPruning(), workers=1,
            ),
            reference_metablocking(
                dirty_blocks, weighting="cbs", pruning=BlastPruning(),
            ),
        )

    def test_worker_pool_matches_serial(self, dirty_blocks):
        serial = reference_metablocking(
            dirty_blocks, weighting=WeightingScheme.CHI_H,
            pruning=BlastPruning(),
        )
        pooled = parallel_metablocking(
            dirty_blocks, weighting=WeightingScheme.CHI_H,
            pruning=BlastPruning(), workers=2, shard_size=2,
        )
        assert_same_edges(pooled, serial)


class TestShardLocalBlastPruning:
    """BLAST shards ship candidates + maxima; the parent decides exactly."""

    def test_shipped_bytes_follow_candidates_not_edges(self):
        blocks = random_blocks(7, profiles=300, blocks=200, largest=20)
        num_ids = blocks.entity_index.node_block_counts.size
        retained, shipped = run_capturing_shards(
            blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning(),
            shard_plan=[(0, 100), (100, num_ids)],
        )
        assert_same_edges(
            retained,
            reference_metablocking(
                blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning(),
            ),
        )
        edges_total = sum(
            shard_edge_arrays(blocks.entity_index, lo, hi).num_edges
            for lo, hi in [(0, 100), (100, num_ids)]
        )
        candidates_total = 0
        for edges, weights, maxima in shipped:
            candidates = edges.src.size
            candidates_total += candidates
            assert edges.shared is None and edges.entropy_mass is None
            assert weights.size == edges.dst.size == candidates
            assert maxima.shape == (num_ids,)
            # Three 8-byte columns per candidate plus the dense maxima,
            # plus pickle framing — nothing proportional to the edges.
            payload = len(pickle.dumps((edges, weights, maxima)))
            assert payload <= 24 * candidates + 8 * num_ids + 1024
        assert len(retained) <= candidates_total < edges_total // 4

    def test_every_edge_at_the_threshold_is_kept(self):
        # Disjoint-pair blocks give every edge CBS weight 1; with c=1, d=2
        # the threshold (M_i + M_j) / 2 equals that weight exactly — both
        # against a shard's maxima and against the global ones.
        blocks = build_blocks(
            {f"k{i}-{j}": {i, j} for i in range(6) for j in range(i + 1, 6)},
            is_clean_clean=False,
        )
        retained, shipped = run_capturing_shards(
            blocks, weighting=WeightingScheme.CBS,
            pruning=BlastPruning(c=1.0, d=2.0),
            shard_plan=[(0, 1), (1, 1), (1, 4), (4, 6)],
        )
        assert len(retained) == 15
        assert sum(edges.src.size for edges, _, _ in shipped) == 15

    def test_all_zero_weights_and_edgeless_shards(self):
        # Two identical blocks: shared == expected everywhere, so CHI_H's
        # one-sided zeroing wipes every weight; no shard has a candidate,
        # the empty and right-side-only ranges have no edge at all.
        blocks = build_blocks(
            {"a": {0, 1, 2, 3}, "b": {0, 1, 2, 3}}, is_clean_clean=False
        )
        retained, shipped = run_capturing_shards(
            blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning(),
            shard_plan=[(0, 0), (0, 2), (2, 2), (2, 3), (3, 4)],
        )
        assert retained.shape == (0, 2)
        for edges, weights, maxima in shipped:
            assert edges.src.size == weights.size == 0
            assert maxima.tolist() == [0.0] * 4

    def test_other_prunings_ship_endpoints_and_weights_only(
        self, dirty_blocks
    ):
        retained, shipped = run_capturing_shards(
            dirty_blocks, weighting=WeightingScheme.CHI_H,
            pruning=WeightEdgePruning(), shard_size=2,
        )
        assert_same_edges(
            retained,
            reference_metablocking(
                dirty_blocks, weighting=WeightingScheme.CHI_H,
                pruning=WeightEdgePruning(),
            ),
        )
        graph_edges = shard_edge_arrays(dirty_blocks.entity_index, 0, 5)
        assert sum(e.src.size for e, _, _ in shipped) == graph_edges.num_edges
        for edges, weights, maxima in shipped:
            assert edges.shared is None and edges.entropy_mass is None
            assert weights.size == edges.src.size and maxima is None

    def test_ejs_still_ships_the_weighting_inputs(self, dirty_blocks):
        _, shipped = run_capturing_shards(
            dirty_blocks, weighting=WeightingScheme.EJS,
            pruning=BlastPruning(), shard_size=2,
        )
        for edges, weights, maxima in shipped:
            assert edges.shared is not None
            assert weights is None and maxima is None

    def test_subclassed_blast_is_not_pre_pruned(self, dirty_blocks):
        class KeepAll(BlastPruning):
            def prune(self, graph, weights):
                return set(weights)

        assert_same_edges(
            parallel_metablocking(
                dirty_blocks, pruning=KeepAll(), workers=1, shard_size=2,
            ),
            reference_metablocking(dirty_blocks, pruning=KeepAll()),
        )

    def test_merge_accepts_slim_shards(self):
        slim = [
            ShardEdges(
                src=np.array([0, 0], dtype=np.int64),
                dst=np.array([1, 2], dtype=np.int64),
                shared=None,
            ),
            ShardEdges(
                src=np.zeros(0, dtype=np.int64),
                dst=np.zeros(0, dtype=np.int64),
                shared=None,
            ),
            ShardEdges(
                src=np.array([3], dtype=np.int64),
                dst=np.array([4], dtype=np.int64),
                shared=None,
            ),
        ]
        merged = merge_shards(slim)
        assert merged.src.tolist() == [0, 0, 3]
        assert merged.dst.tolist() == [1, 2, 4]
        assert merged.shared is None and merged.num_edges == 3

    def test_chunked_mode_peak_memory_scales_with_shard_size(self):
        blocks = random_blocks(11, profiles=1500, blocks=500, largest=40)
        index = blocks.entity_index
        shard_size = 4_000
        assert index.total_comparisons >= 20 * shard_size
        kwargs = dict(
            weighting=WeightingScheme.CHI_H, pruning=BlastPruning(), workers=1
        )
        one_shard, one_shard_peak = _peak_bytes(
            lambda: parallel_metablocking(
                blocks, shard_plan=[(0, index.node_block_counts.size)], **kwargs
            )
        )
        chunked, chunked_peak = _peak_bytes(
            lambda: parallel_metablocking(
                blocks, shard_size=shard_size, **kwargs
            )
        )
        assert_same_edges(chunked, one_shard)
        assert_same_edges(
            one_shard,
            reference_metablocking(
                blocks, weighting=WeightingScheme.CHI_H, pruning=BlastPruning(),
            ),
        )
        assert chunked_peak * 8 < one_shard_peak


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemoryByDefault:
    """No knob set: peak memory follows one default shard, not ``||B||``."""

    @pytest.fixture(scope="class")
    def blocks(self):
        blocks = random_blocks(13, profiles=4000, blocks=2400, largest=40)
        assert blocks.entity_index.total_comparisons > 6 * DEFAULT_SHARD_PAIRS
        return blocks

    def test_vectorized_blast_peak_is_a_few_shards_at_most(self, blocks):
        index = blocks.entity_index
        kwargs = dict(weighting=WeightingScheme.CHI_H, pruning=BlastPruning())
        # What the whole input costs when built at once: the one-shard plan.
        one_shard, one_shard_peak = _peak_bytes(
            lambda: parallel_metablocking(
                blocks, workers=1,
                shard_plan=[(0, index.node_block_counts.size)], **kwargs,
            )
        )
        default, default_peak = _peak_bytes(
            lambda: vectorized_metablocking(blocks, **kwargs)
        )
        assert_same_edges(default, one_shard)  # any plan == the default plan
        per_comparison = one_shard_peak / index.total_comparisons
        assert default_peak < 2.5 * per_comparison * DEFAULT_SHARD_PAIRS

    def test_distinct_pair_arrays_dedupes_shard_by_shard(self, blocks):
        index = blocks.entity_index
        index.shardable  # the index's own cache is not the call's memory
        (src, dst), peak = _peak_bytes(index.distinct_pair_arrays)
        assert list(zip(src.tolist(), dst.tolist())) == sorted(
            {pair for block in blocks for pair in block.iter_pairs()}
        )
        # The sorted output, its packed form twice over (per shard, then
        # concatenated) and one shard's transients come to 2.2x the
        # output; enumerating everything at once took 4.7x.
        assert peak < 3 * (src.nbytes + dst.nbytes)


class TestMetaBlockerIntegration:
    def test_backend_options_flow_through(self, dirty_blocks):
        meta = MetaBlocker(
            backend="parallel",
            backend_options={"workers": 1, "shard_size": 3},
        )
        assert meta.run(dirty_blocks).distinct_pairs() == MetaBlocker(
            backend="python"
        ).run(dirty_blocks).distinct_pairs()

    def test_config_derives_parallel_options(self):
        config = BlastConfig(backend="parallel", workers=2, shard_size=100)
        assert config.backend_options() == {"workers": 2, "shard_size": 100}

    def test_knobs_rejected_for_serial_backends(self):
        # Silently ignoring --workers on a serial backend would let users
        # believe they run parallel; the config refuses instead.
        with pytest.raises(ValueError, match="serial"):
            BlastConfig(backend="vectorized", workers=2)
        with pytest.raises(ValueError, match="serial"):
            BlastConfig(backend="python", shard_size=100)

    @pytest.mark.parametrize("knob, value", [
        ("workers", 2),
        ("shard_size", 100),
        ("task_timeout", 1.5),
        ("max_retries", 0),  # a set knob (no retries), not an unset one
    ])
    def test_rejection_names_every_knob_and_value(self, knob, value):
        got = ", ".join(
            f"{name}={value if name == knob else None}"
            for name in ("workers", "shard_size", "task_timeout", "max_retries")
        )
        with pytest.raises(ValueError) as error:
            BlastConfig(backend="vectorized", **{knob: value})
        assert str(error.value) == (
            "workers/shard_size/task_timeout/max_retries do not apply to "
            "the serial 'vectorized' backend; use backend='parallel' "
            f"(got {got})"
        )

    def test_knobs_forwarded_to_custom_backends(self):
        # A registered non-built-in backend may accept execution knobs;
        # the config passes them through instead of rejecting them.
        config = BlastConfig(backend="my-cluster", workers=8, shard_size=10)
        assert config.backend_options() == {"workers": 8, "shard_size": 10}

    def test_options_omit_unset_knobs(self):
        assert BlastConfig(backend="parallel").backend_options() == {}
