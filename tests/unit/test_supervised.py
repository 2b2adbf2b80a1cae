"""Tests for edge features and supervised meta-blocking."""

import numpy as np
import pytest
from _supervised_oracles import oracle_edge_features, oracle_retained

from repro.blocking import TokenBlocking
from repro.graph import ArrayBlockingGraph, BlockingGraph
from repro.metrics import evaluate_blocks
from repro.supervised import EDGE_FEATURE_NAMES, SupervisedMetaBlocking, edge_features


class TestEdgeFeatures:
    def test_shape_and_names(self, figure1_dirty):
        graph = ArrayBlockingGraph(TokenBlocking().build(figure1_dirty))
        edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
        X = edge_features(graph)
        assert X.shape == (len(edges), len(EDGE_FEATURE_NAMES))
        assert np.isfinite(X).all()

    def test_js_feature_matches_weighting_scheme(self, figure1_dirty):
        from repro.graph import WeightingScheme, compute_weights

        blocks = TokenBlocking().build(figure1_dirty)
        graph = ArrayBlockingGraph(blocks)
        X = edge_features(graph)
        js = compute_weights(BlockingGraph(blocks), WeightingScheme.JS)
        js_column = EDGE_FEATURE_NAMES.index("js")
        edges = zip(graph.src.tolist(), graph.dst.tolist())
        for row, edge in enumerate(edges):
            assert X[row, js_column] == pytest.approx(js[edge])

    def test_degree_features_normalized(self, figure1_dirty):
        X = edge_features(ArrayBlockingGraph(TokenBlocking().build(figure1_dirty)))
        nd = X[:, [3, 4]]
        assert (nd > 0).all() and (nd <= 1).all()

    def test_matching_edges_score_higher_on_raccb(self, figure1_dirty):
        graph = ArrayBlockingGraph(TokenBlocking().build(figure1_dirty))
        edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
        X = edge_features(graph)
        raccb = dict(zip(edges, X[:, 1]))
        # true matches p1-p3 and p2-p4 accumulate more small-block mass
        # than the "abram"-only pairs p1-p2, p3-p4
        assert raccb[(0, 2)] > raccb[(0, 1)]
        assert raccb[(1, 3)] > raccb[(2, 3)]


class TestSupervisedMetaBlocking:
    def test_improves_pq_on_benchmark(self):
        from repro import load_clean_clean, prepare_blocks

        ds = load_clean_clean("ar1", scale=0.5)
        base = prepare_blocks(ds)
        out = SupervisedMetaBlocking(seed=7).run(base, ds)
        before = evaluate_blocks(base, ds)
        after = evaluate_blocks(out, ds)
        assert after.pair_quality > before.pair_quality
        assert after.pair_completeness > 0.8

    def test_deterministic_given_seed(self):
        from repro import load_clean_clean, prepare_blocks

        ds = load_clean_clean("prd", scale=0.5)
        base = prepare_blocks(ds)
        out1 = SupervisedMetaBlocking(seed=5).run(base, ds)
        out2 = SupervisedMetaBlocking(seed=5).run(base, ds)
        assert {b.key for b in out1} == {b.key for b in out2}

    def test_degenerate_no_positives_keeps_everything(self, figure1_dirty):
        from repro.data import ERDataset, GroundTruth

        no_matches = ERDataset(
            figure1_dirty.collection1, None,
            GroundTruth([], clean_clean=False), "empty-gt",
        )
        blocks = TokenBlocking().build(no_matches)
        out = SupervisedMetaBlocking(seed=1).run(blocks, no_matches)
        assert len(out) == ArrayBlockingGraph(blocks).num_edges

    def test_empty_collection(self, figure1_dirty):
        from repro.blocking.base import BlockCollection

        empty = BlockCollection([], False)
        assert edge_features(ArrayBlockingGraph(empty)).shape == (0, 5)
        assert len(SupervisedMetaBlocking().run(empty, figure1_dirty)) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedMetaBlocking(training_fraction=0.0)
        with pytest.raises(ValueError):
            SupervisedMetaBlocking(negative_ratio=-1.0)


def _hex(matrix: np.ndarray) -> list[str]:
    return [value.hex() for value in matrix.ravel().tolist()]


@pytest.fixture(scope="module", params=["ar1", "census"])
def generated(request):
    from repro import load_clean_clean, load_dirty, prepare_blocks

    if request.param == "census":
        dataset = load_dirty("census", scale=0.2, seed=3)
    else:
        dataset = load_clean_clean("ar1", scale=0.2, seed=3)
    return dataset, prepare_blocks(dataset)


class TestAgainstPerEdgeOracle:
    """The array path equals the per-edge loop of ``tests/_supervised_oracles``."""

    def test_features_bit_identical(self, generated):
        _, blocks = generated
        reference = BlockingGraph(blocks)
        edges = [edge for edge, _ in reference.edges()]
        graph = ArrayBlockingGraph(blocks)
        assert list(zip(graph.src.tolist(), graph.dst.tolist())) == edges
        assert _hex(edge_features(graph)) == _hex(
            oracle_edge_features(reference, edges)
        )

    @pytest.mark.parametrize("seed", [7, 11])
    def test_retained_set_identical(self, generated, seed):
        dataset, blocks = generated
        meta = SupervisedMetaBlocking(seed=seed)
        out = meta.run(blocks, dataset)
        assert [tuple(sorted(b.profiles)) for b in out] == oracle_retained(
            meta, blocks, dataset
        )

    def test_no_negatives_keeps_everything(self, figure1_dirty):
        from repro.data import ERDataset, GroundTruth

        ids = [profile.profile_id for profile in figure1_dirty.collection1]
        every_pair = [(a, b) for n, a in enumerate(ids) for b in ids[n + 1:]]
        dataset = ERDataset(
            figure1_dirty.collection1, None,
            GroundTruth(every_pair, clean_clean=False), "all-matches",
        )
        blocks = TokenBlocking().build(dataset)
        meta = SupervisedMetaBlocking(seed=1)
        expected = oracle_retained(meta, blocks, dataset)
        graph = ArrayBlockingGraph(blocks)
        assert expected == list(zip(graph.src.tolist(), graph.dst.tolist()))
        assert [tuple(sorted(b.profiles)) for b in meta.run(blocks, dataset)] == (
            expected
        )
