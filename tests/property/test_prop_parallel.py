"""Property-based shard invariance of the array meta-blocking driver.

The shard loop's contract is stronger than result equivalence: the
*merged edge arrays* must be bit-identical to the default plan's
(``ArrayBlockingGraph``) — same edges, same order, same float masses down
to the last ulp — no matter how the entity-id space is partitioned.
Hypothesis hammers that with random collections and pathological shard
plans: 1/2/7/16-way balanced plans, arbitrary boundary sets, empty ranges,
and single-entity ranges.

BLAST pruning adds a second contract on top: its shards drop edges before
the merge (``run_shard`` keeps only the candidates that pass BLAST's test
against the shard's local maxima), so the suite also pins the exactness
argument — every shard's candidates are a superset of the globally
retained edges it owns, for any plan, weighting and positive ``c``/``d``.

Under both sits the decision protocol every built-in pruning implements
(``reduce`` / ``combine`` / ``select`` / ``decide``): cut a whole graph's
edges into contiguous ``src`` ranges, and the pieces' combined partial
states are the whole graph's reduction, and the decision over their
selected edges is :func:`prune_mask` on the whole graph.
"""

import numpy as np
import pytest
from _block_oracles import assert_same_edges
from _parallel_helpers import run_capturing_shards
from hypothesis import given, settings, strategies as st

from repro.blocking.base import build_blocks
from repro.graph import WeightingScheme
from repro.graph.metablocking import reference_metablocking
from repro.graph.parallel import merge_shards, parallel_metablocking
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.sharding import (
    ShardableIndex,
    ShardEdges,
    pair_counts_by_entity,
    plan_shards,
    shard_edge_arrays,
)
from repro.graph.vectorized import ArrayBlockingGraph, array_pruning, prune_mask

NUM_PROFILES = 12

dirty_keyed = st.dictionaries(
    keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
    values=st.sets(st.integers(0, NUM_PROFILES - 1), min_size=2, max_size=6),
    min_size=1,
    max_size=10,
)

clean_keyed = st.dictionaries(
    keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
    values=st.tuples(
        st.sets(st.integers(0, 5), min_size=1, max_size=4),
        st.sets(st.integers(6, 11), min_size=1, max_size=4),
    ),
    min_size=1,
    max_size=10,
)

collections = st.one_of(
    dirty_keyed.map(lambda keyed: build_blocks(keyed, is_clean_clean=False)),
    clean_keyed.map(lambda keyed: build_blocks(keyed, is_clean_clean=True)),
)

#: Deterministic, non-trivial per-key entropies (or None for the neutral 1.0).
entropies = st.sampled_from(
    [None, lambda key: 0.25 + (sum(map(ord, key)) % 7) / 3.0]
)

PRUNINGS = [
    BlastPruning(),
    WeightEdgePruning(),
    CardinalityEdgePruning(),
    WeightNodePruning(reciprocal=True),
    CardinalityNodePruning(reciprocal=False),
]

SHARD_COUNTS = [1, 2, 7, 16]


def _arbitrary_plans(num_ids: int):
    """Shard plans from arbitrary boundary multisets over ``[0, num_ids]``.

    Repeated boundaries produce empty ranges; adjacent boundaries produce
    single-entity ranges — the pathological layouts the backend must
    absorb without changing a single bit.
    """
    return st.lists(
        st.integers(0, num_ids), min_size=0, max_size=6
    ).map(
        lambda cuts: [
            (lo, hi)
            for lo, hi in zip(
                [0] + sorted(cuts), sorted(cuts) + [num_ids]
            )
        ]
    )


def _bit_identical(merged, graph: ArrayBlockingGraph) -> None:
    assert merged.src.tobytes() == graph.src.tobytes()
    assert merged.dst.tobytes() == graph.dst.tobytes()
    assert merged.shared.tobytes() == graph.shared.tobytes()
    assert merged.arcs_mass.tobytes() == graph.arcs_mass.tobytes()
    assert merged.entropy_mass.tobytes() == graph.entropy_mass.tobytes()


class TestMergedArraysBitIdentical:
    @given(collections, entropies, st.sampled_from(SHARD_COUNTS))
    @settings(max_examples=60)
    def test_balanced_plans(self, collection, key_entropy, num_shards):
        index = collection.entity_index
        slim = ShardableIndex.from_entity_index(index)
        graph = ArrayBlockingGraph(collection, key_entropy=key_entropy)
        block_entropies = index.block_entropies(key_entropy)
        plan = plan_shards(slim, num_shards=num_shards)
        merged = merge_shards(
            [
                shard_edge_arrays(
                    slim,
                    lo,
                    hi,
                    block_entropies=block_entropies,
                    need_arcs=True,
                )
                for lo, hi in plan
            ]
        )
        _bit_identical(merged, graph)

    @given(collections, entropies, st.data())
    @settings(max_examples=60)
    def test_arbitrary_plans_with_empty_and_unit_ranges(
        self, collection, key_entropy, data
    ):
        index = collection.entity_index
        slim = ShardableIndex.from_entity_index(index)
        plan = data.draw(_arbitrary_plans(slim.num_ids))
        graph = ArrayBlockingGraph(collection, key_entropy=key_entropy)
        block_entropies = index.block_entropies(key_entropy)
        merged = merge_shards(
            [
                shard_edge_arrays(
                    slim,
                    lo,
                    hi,
                    block_entropies=block_entropies,
                    need_arcs=True,
                )
                for lo, hi in plan
            ]
        )
        _bit_identical(merged, graph)


class TestRetainedEdgesShardInvariant:
    @given(
        collections,
        entropies,
        st.sampled_from(list(WeightingScheme)),
        st.sampled_from(PRUNINGS),
        st.sampled_from(SHARD_COUNTS),
        st.booleans(),
    )
    @settings(max_examples=80)
    def test_every_shard_count_matches_the_oracle(
        self, collection, key_entropy, scheme, pruning, num_shards, boost
    ):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        plan = plan_shards(slim, num_shards=num_shards)
        reference = reference_metablocking(
            collection,
            weighting=scheme,
            pruning=pruning,
            entropy_boost=boost,
            key_entropy=key_entropy,
        )
        parallel = parallel_metablocking(
            collection,
            weighting=scheme,
            pruning=pruning,
            entropy_boost=boost,
            key_entropy=key_entropy,
            workers=1,
            shard_plan=plan,
        )
        assert_same_edges(parallel, reference)

    @given(
        collections,
        st.sampled_from(list(WeightingScheme)),
        st.sampled_from(PRUNINGS),
        st.data(),
    )
    @settings(max_examples=60)
    def test_arbitrary_plans_match_the_oracle(
        self, collection, scheme, pruning, data
    ):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        plan = data.draw(_arbitrary_plans(slim.num_ids))
        reference = reference_metablocking(
            collection, weighting=scheme, pruning=pruning
        )
        parallel = parallel_metablocking(
            collection,
            weighting=scheme,
            pruning=pruning,
            workers=1,
            shard_plan=plan,
        )
        assert_same_edges(parallel, reference)


#: Every weighting the workers evaluate themselves (EJS needs the merged
#: global degrees, so its shards are never pre-pruned).
IN_WORKER_WEIGHTINGS = [
    scheme for scheme in WeightingScheme if scheme is not WeightingScheme.EJS
]

#: BLAST's divisors: any positive value, including ``c < 1`` (thresholds
#: above the maxima, nothing survives) and huge ones (everything does).
divisors = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestShardLocalBlastPruningIsExact:
    def _check(self, collection, key_entropy, scheme, boost, c, d, plan):
        kwargs = dict(
            weighting=scheme,
            pruning=BlastPruning(c=c, d=d),
            entropy_boost=boost,
            key_entropy=key_entropy,
        )
        oracle = reference_metablocking(collection, **kwargs)
        retained, shipped = run_capturing_shards(
            collection, shard_plan=plan, **kwargs
        )
        assert len(shipped) == len(plan)
        for position, (lo, hi) in enumerate(plan):
            edges, weights, maxima = shipped[position]
            candidates = set(zip(edges.src.tolist(), edges.dst.tolist()))
            assert all(lo <= src < hi for src, _ in candidates)
            assert weights.size == len(candidates)
            assert maxima is not None and (maxima >= 0.0).all()
            # (a) local filtering never loses a globally retained edge.
            owned = {(i, j) for i, j in oracle.tolist() if lo <= i < hi}
            assert owned <= candidates
        # (b) the driver's decision is the python oracle's.
        assert_same_edges(retained, oracle)

    @given(
        collections,
        entropies,
        st.sampled_from(IN_WORKER_WEIGHTINGS),
        st.booleans(),
        divisors,
        divisors,
        st.sampled_from(SHARD_COUNTS),
    )
    @settings(max_examples=120)
    def test_balanced_plans(
        self, collection, key_entropy, scheme, boost, c, d, num_shards
    ):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        plan = plan_shards(slim, num_shards=num_shards)
        self._check(collection, key_entropy, scheme, boost, c, d, plan)

    @given(
        collections,
        entropies,
        st.sampled_from(IN_WORKER_WEIGHTINGS),
        st.booleans(),
        divisors,
        divisors,
        st.data(),
    )
    @settings(max_examples=120)
    def test_arbitrary_plans_with_empty_and_unit_ranges(
        self, collection, key_entropy, scheme, boost, c, d, data
    ):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        plan = data.draw(_arbitrary_plans(slim.num_ids))
        self._check(collection, key_entropy, scheme, boost, c, d, plan)


def _hex(state):
    """A reduced state, exactly: ``None`` or its floats in ``float.hex``."""
    return None if state is None else [float.hex(x) for x in state.tolist()]


class TestDecisionProtocol:
    @pytest.mark.parametrize(
        "pruning", PRUNINGS, ids=lambda pruning: type(pruning).__name__
    )
    @given(
        collections,
        entropies,
        st.sampled_from(IN_WORKER_WEIGHTINGS),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60)
    def test_pieces_reduce_and_decide_as_the_whole_graph(
        self, pruning, collection, key_entropy, scheme, boost, data
    ):
        graph = ArrayBlockingGraph(collection, key_entropy=key_entropy)
        weights = graph.weights(scheme, entropy_boost=boost)
        num_ids = graph.node_blocks.size
        decision = array_pruning(pruning)
        plan = data.draw(_arbitrary_plans(num_ids))
        cuts = np.searchsorted(graph.src, [lo for lo, _ in plan] + [num_ids])
        reduced, selected = None, []
        for start, stop in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            piece = (graph.src[start:stop], graph.dst[start:stop], weights[start:stop])
            partial = decision.reduce(*piece, num_ids)
            reduced = decision.combine(reduced, partial)
            keep = decision.select(*piece, partial)
            positions = np.arange(start, stop)
            selected.append(positions if keep is None else positions[keep])
        # (a) the pieces' partials combine into the whole graph's reduction.
        whole = decision.reduce(graph.src, graph.dst, weights, num_ids)
        assert _hex(reduced) == _hex(whole)
        # (b) deciding over the selected edges is the whole-graph decision.
        kept = np.concatenate(selected)
        candidates = ArrayBlockingGraph.of_merged(
            collection.entity_index,
            ShardEdges(graph.src[kept], graph.dst[kept], None),
        )
        mask = decision.decide(candidates, weights[kept], reduced)
        expected = prune_mask(pruning, graph, weights)
        assert kept[mask].tolist() == np.flatnonzero(expected).tolist()


class TestPlanner:
    @given(collections, st.integers(1, 20))
    @settings(max_examples=60)
    def test_plans_partition_the_id_space(self, collection, num_shards):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        plan = plan_shards(slim, num_shards=num_shards)
        assert plan[0][0] == 0
        assert plan[-1][1] == slim.num_ids
        for (_, hi), (lo, _) in zip(plan[:-1], plan[1:]):
            assert hi == lo
        assert all(lo < hi for lo, hi in plan)
        assert len(plan) <= num_shards

    @given(collections, st.integers(1, 50))
    @settings(max_examples=60)
    def test_max_pairs_caps_shards_up_to_one_entity(
        self, collection, max_pairs
    ):
        slim = ShardableIndex.from_entity_index(collection.entity_index)
        counts = pair_counts_by_entity(slim)
        plan = plan_shards(slim, max_pairs=max_pairs)
        for lo, hi in plan:
            owned = int(counts[lo:hi].sum())
            # A range may only exceed the cap when shrinking it further is
            # impossible (a single entity already exceeds it on its own).
            assert owned <= max_pairs or hi - lo == 1

    @given(collections)
    @settings(max_examples=30)
    def test_pair_counts_sum_to_total_comparisons(self, collection):
        index = collection.entity_index
        counts = pair_counts_by_entity(
            ShardableIndex.from_entity_index(index)
        )
        assert int(counts.sum()) == index.total_comparisons
