"""Property-based equivalence: python vs vectorized meta-blocking backends.

The vectorized backend's contract is *result equivalence*: on any block
collection, any of the six weighting schemes (with and without the
``entropy_boost`` ablation), and any built-in pruning scheme, it must
produce edge weights within 1e-9 of the reference and the *identical*
retained edge set, for both clean-clean and dirty collections.  Hypothesis
hammers that contract with random collections.
"""

from _block_oracles import assert_same_edges
from hypothesis import given, settings, strategies as st

from repro.blocking.base import build_blocks
from repro.graph import BlockingGraph, WeightingScheme, compute_weights
from repro.graph.metablocking import reference_metablocking
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.vectorized import ArrayBlockingGraph, vectorized_metablocking

NUM_PROFILES = 12

dirty_keyed = st.dictionaries(
    keys=st.text(alphabet="abcdef", min_size=1, max_size=4),
    values=st.sets(st.integers(0, NUM_PROFILES - 1), min_size=2, max_size=6),
    min_size=1,
    max_size=10,
)

# Clean-clean: E1 indices [0, 6), E2 indices [6, 12) — mirrors the global
# indexing convention (every E1 index below every E2 index).
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
    BlastPruning(c=1.5, d=3.0),
    WeightEdgePruning(),
    WeightEdgePruning(threshold=0.75),
    CardinalityEdgePruning(),
    CardinalityEdgePruning(k=3),
    WeightNodePruning(reciprocal=False),
    WeightNodePruning(reciprocal=True),
    CardinalityNodePruning(reciprocal=False),
    CardinalityNodePruning(reciprocal=True, k=2),
]


class TestWeightEquivalence:
    @given(collections, entropies, st.booleans())
    @settings(max_examples=60)
    def test_all_schemes_match_within_tolerance(
        self, collection, key_entropy, boost
    ):
        graph = BlockingGraph(collection, key_entropy=key_entropy)
        agraph = ArrayBlockingGraph(collection, key_entropy=key_entropy)
        edges = list(zip(agraph.src.tolist(), agraph.dst.tolist()))
        for scheme in WeightingScheme:
            reference = compute_weights(graph, scheme, entropy_boost=boost)
            vectorized = dict(
                zip(edges, agraph.weights(scheme, entropy_boost=boost).tolist())
            )
            assert set(reference) == set(vectorized)
            for edge, weight in reference.items():
                assert abs(weight - vectorized[edge]) <= 1e-9 * max(
                    1.0, abs(weight)
                ), (scheme, edge)

    @given(collections)
    @settings(max_examples=40)
    def test_edge_stats_match_reference(self, collection):
        graph = BlockingGraph(collection)
        agraph = ArrayBlockingGraph(collection)
        reference = {edge: stats for edge, stats in graph.edges()}
        edges = list(zip(agraph.src.tolist(), agraph.dst.tolist()))
        assert edges == sorted(reference)
        for position, edge in enumerate(edges):
            stats = reference[edge]
            assert int(agraph.shared[position]) == stats.shared_blocks
            assert abs(float(agraph.arcs_mass[position]) - stats.arcs_mass) < 1e-12
        assert agraph.num_nodes == graph.num_nodes
        for node, count in graph.node_blocks.items():
            assert int(agraph.node_blocks[node]) == count


class TestRetainedEdgeEquivalence:
    @given(collections, entropies, st.sampled_from(PRUNINGS))
    @settings(max_examples=80)
    def test_chi_h_identical_retained_edges(
        self, collection, key_entropy, pruning
    ):
        reference = reference_metablocking(
            collection,
            weighting=WeightingScheme.CHI_H,
            pruning=pruning,
            key_entropy=key_entropy,
        )
        vectorized = vectorized_metablocking(
            collection,
            weighting=WeightingScheme.CHI_H,
            pruning=pruning,
            key_entropy=key_entropy,
        )
        assert_same_edges(reference, vectorized)

    @given(
        collections,
        st.sampled_from(list(WeightingScheme)),
        st.sampled_from(PRUNINGS),
        st.booleans(),
    )
    @settings(max_examples=80)
    def test_every_scheme_identical_retained_edges(
        self, collection, scheme, pruning, boost
    ):
        kwargs = dict(
            weighting=scheme, pruning=pruning, entropy_boost=boost
        )
        assert_same_edges(
            reference_metablocking(collection, **kwargs),
            vectorized_metablocking(collection, **kwargs),
        )


class TestStreamingPairs:
    @given(collections)
    @settings(max_examples=40)
    def test_iter_and_count_agree_with_set(self, collection):
        streamed = list(collection.iter_distinct_pairs())
        assert streamed == sorted(set(streamed))  # sorted, duplicate-free
        assert set(streamed) == {
            pair for block in collection for pair in block.iter_pairs()
        }
        assert collection.count_distinct_pairs() == len(streamed)
        assert collection.distinct_pairs() == set(streamed)
