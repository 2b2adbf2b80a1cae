"""Tests for the array-backed meta-blocking backend (repro.graph.vectorized)."""

import numpy as np
import pytest
from _block_oracles import assert_same_edges

from repro.blocking import TokenBlocking
from repro.blocking.base import Block, BlockCollection
from repro.core import BlastConfig
from repro.core.registry import BACKENDS
from repro.graph import (
    ArrayBlockingGraph,
    BlockingGraph,
    MetaBlocker,
    WeightingScheme,
    compute_weights,
)
from repro.graph.metablocking import reference_metablocking
from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightEdgePruning,
)
from repro.graph.vectorized import (
    prune_mask,
    supports_pruning,
    vectorized_metablocking,
)


def _blocks(figure1_dirty):
    return TokenBlocking().build(figure1_dirty)


class TestArrayGraph:
    def test_edges_sorted_and_match_reference(self, figure1_dirty):
        collection = _blocks(figure1_dirty)
        agraph = ArrayBlockingGraph(collection)
        graph = BlockingGraph(collection)
        edges = list(zip(agraph.src.tolist(), agraph.dst.tolist()))
        assert edges == [edge for edge, _ in graph.edges()]
        assert agraph.num_edges == graph.num_edges
        assert agraph.num_nodes == graph.num_nodes
        assert agraph.num_blocks == graph.num_blocks

    def test_shared_blocks_match_figure_1c(self, figure1_dirty):
        agraph = ArrayBlockingGraph(_blocks(figure1_dirty))
        edges = zip(agraph.src.tolist(), agraph.dst.tolist())
        cbs = dict(zip(edges, agraph.shared.tolist()))
        assert cbs[(0, 2)] == 4
        assert cbs[(0, 1)] == 1

    def test_degrees_dense(self, figure1_dirty):
        agraph = ArrayBlockingGraph(_blocks(figure1_dirty))
        assert agraph.degrees[:4].tolist() == [3, 3, 3, 3]

    def test_empty_collection(self):
        agraph = ArrayBlockingGraph(BlockCollection([], True))
        assert agraph.num_edges == 0
        assert agraph.weights(WeightingScheme.CHI_H).size == 0
        assert prune_mask(BlastPruning(), agraph, np.zeros(0)).size == 0

    def test_entropy_mass_uses_key_entropy(self):
        blocks = BlockCollection(
            [
                Block("high#1", frozenset({0}), frozenset({5})),
                Block("low#2", frozenset({0}), frozenset({5})),
            ],
            True,
        )
        entropies = {"high#1": 3.0, "low#2": 1.0}
        agraph = ArrayBlockingGraph(blocks, key_entropy=entropies.__getitem__)
        assert agraph.entropy_mass.tolist() == [4.0]
        assert agraph.shared.tolist() == [2]


class TestWeights:
    @pytest.mark.parametrize("scheme", list(WeightingScheme))
    def test_matches_reference_exactly(self, figure1_dirty, scheme):
        collection = _blocks(figure1_dirty)
        reference = compute_weights(BlockingGraph(collection), scheme)
        agraph = ArrayBlockingGraph(collection)
        vectorized = agraph.weights(scheme)
        edges = zip(agraph.src.tolist(), agraph.dst.tolist())
        for position, edge in enumerate(edges):
            assert vectorized[position] == pytest.approx(
                reference[edge], abs=1e-12
            )

    def test_chi_h_zeroes_negative_association(self, figure1_dirty):
        # p1-p2 share only the ambiguous "abram" block: below expectation.
        collection = _blocks(figure1_dirty)
        agraph = ArrayBlockingGraph(collection)
        edges = zip(agraph.src.tolist(), agraph.dst.tolist())
        weights = dict(zip(edges, agraph.weights(WeightingScheme.CHI_H)))
        assert weights[(0, 1)] == 0.0
        assert weights[(0, 2)] > 0.0


class TestPruneDispatch:
    def test_supports_builtin_schemes_only(self):
        assert supports_pruning(BlastPruning())
        assert supports_pruning(WeightEdgePruning())
        assert supports_pruning(CardinalityNodePruning(reciprocal=True))

        class Custom(PruningScheme):
            def prune(self, graph, weights):
                return set(weights)

        class SubclassedBlast(BlastPruning):
            def prune(self, graph, weights):
                return set()

        assert not supports_pruning(Custom())
        # Subclasses must not be silently routed to the base vectorization.
        assert not supports_pruning(SubclassedBlast())

    def test_prune_mask_rejects_unknown_scheme(self, figure1_dirty):
        class Custom(PruningScheme):
            def prune(self, graph, weights):
                return set(weights)

        agraph = ArrayBlockingGraph(_blocks(figure1_dirty))
        with pytest.raises(TypeError, match="no vectorized pruning"):
            prune_mask(Custom(), agraph, agraph.weights())

    def test_backend_falls_back_for_custom_components(self, figure1_dirty):
        collection = _blocks(figure1_dirty)

        class KeepAll(PruningScheme):
            def prune(self, graph, weights):
                return set(weights)

        def constant_weighting(graph):
            return {edge: 1.0 for edge, _ in graph.edges()}

        for weighting, pruning in (
            (WeightingScheme.CBS, KeepAll()),
            (constant_weighting, BlastPruning()),
        ):
            assert_same_edges(
                vectorized_metablocking(
                    collection, weighting=weighting, pruning=pruning,
                ),
                reference_metablocking(
                    collection, weighting=weighting, pruning=pruning,
                ),
            )


class TestBackendSelection:
    def test_registry_has_both_backends(self):
        assert set(BACKENDS.names()) >= {"python", "vectorized"}

    def test_metablocker_backends_agree(self, figure1_dirty):
        collection = _blocks(figure1_dirty)
        vec = MetaBlocker(backend="vectorized").run(collection)
        ref = MetaBlocker(backend="python").run(collection)
        assert vec.distinct_pairs() == ref.distinct_pairs()
        assert [b.key for b in vec] == [b.key for b in ref]

    def test_metablocker_accepts_scheme_name_string(self, figure1_dirty):
        collection = _blocks(figure1_dirty)
        named = MetaBlocker(weighting="cbs").run(collection)
        typed = MetaBlocker(weighting=WeightingScheme.CBS).run(collection)
        assert named.distinct_pairs() == typed.distinct_pairs()

    def test_unknown_backend_raises_with_choices(self, figure1_dirty):
        collection = _blocks(figure1_dirty)
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            MetaBlocker(backend="gpu").run(collection)

    def test_config_carries_backend(self):
        assert BlastConfig().backend == "vectorized"
        assert BlastConfig(backend="python").backend == "python"
        with pytest.raises(ValueError, match="backend"):
            BlastConfig(backend="")
