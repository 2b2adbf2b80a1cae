"""Tests for query-time meta-blocking (repro.streaming.metablocker)."""

import pytest

from repro.core import BlastConfig, prepare_blocks
from repro.core.registry import BACKENDS, build_pipeline
from repro.data import EntityProfile
from repro.graph import BlockingGraph, WeightingScheme
from repro.graph.pruning import (
    BlastPruning,
    CardinalityEdgePruning,
    CardinalityNodePruning,
    WeightEdgePruning,
    WeightNodePruning,
)
from repro.graph.weights import compute_weights
from repro.streaming import (
    IncrementalBlockIndex,
    StreamingMetaBlocker,
    StreamingSession,
)


def build_index(dataset):
    index = IncrementalBlockIndex(clean_clean=dataset.is_clean_clean)
    for gidx, profile in dataset.iter_profiles():
        index.upsert(profile, source=dataset.source_of(gidx))
    return index


def batch_retained(dataset, weighting, pruning):
    """Retained edges of the batch token pipeline, as gidx pairs."""
    blocks = prepare_blocks(dataset)
    graph = BlockingGraph(blocks)
    weights = compute_weights(graph, weighting)
    return pruning.prune(graph, weights)


def streamed_neighbourhoods(dataset, meta):
    """profile gidx -> retained partner gidx set, via per-node queries."""
    out = {}
    offset2 = dataset.offset2 if dataset.is_clean_clean else 0
    for gidx, profile in dataset.iter_profiles():
        partners = set()
        for c in meta.candidates(
            profile.profile_id, source=dataset.source_of(gidx)
        ):
            if c.source == 0:
                partners.add(dataset.collection1.index_of(c.profile_id))
            else:
                partners.add(
                    offset2 + dataset.collection2.index_of(c.profile_id)
                )
        out[gidx] = partners
    return out


class TestValidation:
    def test_ejs_rejected(self):
        with pytest.raises(ValueError, match="EJS"):
            StreamingMetaBlocker(IncrementalBlockIndex(), weighting="ejs")

    def test_callable_weighting_rejected(self):
        with pytest.raises(TypeError, match="callable"):
            StreamingMetaBlocker(
                IncrementalBlockIndex(), weighting=lambda graph: {}
            )

    def test_edge_centric_pruning_rejected(self):
        for pruning in (WeightEdgePruning(), CardinalityEdgePruning()):
            with pytest.raises(ValueError, match="node-centric"):
                StreamingMetaBlocker(IncrementalBlockIndex(), pruning=pruning)

    def test_custom_pruning_subclass_rejected(self):
        class Custom(BlastPruning):
            pass

        with pytest.raises(ValueError, match="node-centric"):
            StreamingMetaBlocker(IncrementalBlockIndex(), pruning=Custom())

    def test_backend_argument_removed(self):
        with pytest.raises(TypeError, match="backend"):
            StreamingMetaBlocker(IncrementalBlockIndex(), backend="python")

    def test_unknown_consistency_fails_on_first_query(self):
        index = IncrementalBlockIndex()
        index.upsert(EntityProfile.from_dict("a", {"n": "abram"}))
        meta = StreamingMetaBlocker(index, consistency="nope")
        with pytest.raises(ValueError, match="stream view"):
            meta.candidates("a")

    def test_querying_unknown_profile_raises(self):
        meta = StreamingMetaBlocker(IncrementalBlockIndex())
        with pytest.raises(KeyError):
            meta.candidates("ghost")

    def test_nonpositive_k_rejected(self):
        index = IncrementalBlockIndex()
        index.upsert(EntityProfile.from_dict("a", {"n": "abram"}))
        with pytest.raises(ValueError, match="k must be positive"):
            StreamingMetaBlocker(index).candidates("a", k=0)


class TestQueries:
    # Tiny fixtures disable purging (a 2-member block always covers more
    # than half of <= 3 profiles, faithfully to the batch semantics) and
    # use CBS (chi-squared is degenerate when every block is shared).

    def test_neighborhood_lists_cooccurring_profiles(self):
        index = IncrementalBlockIndex(purging_ratio=1.0)
        index.upsert(EntityProfile.from_dict("a", {"n": "john abram"}))
        index.upsert(EntityProfile.from_dict("b", {"n": "john smith"}))
        index.upsert(EntityProfile.from_dict("c", {"n": "ellen smith"}))
        meta = StreamingMetaBlocker(index)
        assert {c.profile_id for c in meta.neighborhood("a")} == {"b"}
        assert {c.profile_id for c in meta.neighborhood("b")} == {"a", "c"}

    def test_candidates_sorted_by_weight_then_id(self):
        index = IncrementalBlockIndex(purging_ratio=1.0)
        index.upsert(EntityProfile.from_dict("a", {"n": "john abram jr"}))
        index.upsert(EntityProfile.from_dict("b", {"n": "john abram"}))
        index.upsert(EntityProfile.from_dict("c", {"n": "john"}))
        meta = StreamingMetaBlocker(index, weighting="cbs")
        result = meta.candidates("a")
        assert [c.profile_id for c in result] == ["b", "c"]
        weights = [c.weight for c in result]
        assert weights == sorted(weights, reverse=True)

    def test_k_caps_after_pruning(self):
        index = IncrementalBlockIndex(purging_ratio=1.0)
        index.upsert(EntityProfile.from_dict("a", {"n": "john abram jr"}))
        index.upsert(EntityProfile.from_dict("b", {"n": "john abram"}))
        index.upsert(EntityProfile.from_dict("c", {"n": "john abram senior"}))
        meta = StreamingMetaBlocker(index, weighting="cbs")
        full = meta.candidates("a")
        assert meta.candidates("a", k=1) == full[:1]

    def test_delete_then_query_reflects_removal(self):
        index = IncrementalBlockIndex(purging_ratio=1.0)
        index.upsert(EntityProfile.from_dict("a", {"n": "john abram"}))
        index.upsert(EntityProfile.from_dict("b", {"n": "john abram"}))
        index.upsert(EntityProfile.from_dict("c", {"n": "john abram"}))
        meta = StreamingMetaBlocker(index, weighting="cbs")
        assert {c.profile_id for c in meta.candidates("a")} == {"b", "c"}
        index.delete("b")
        assert {c.profile_id for c in meta.candidates("a")} == {"c"}

    def test_empty_neighbourhood_returns_empty(self):
        index = IncrementalBlockIndex()
        index.upsert(EntityProfile.from_dict("a", {"n": "abram"}))
        index.upsert(EntityProfile.from_dict("b", {"n": "smith"}))
        meta = StreamingMetaBlocker(index)
        assert meta.candidates("a") == []
        assert meta.neighborhood("a") == []

    def test_fast_candidates_subset_of_neighborhood(self, figure1_dirty):
        index = build_index(figure1_dirty)
        meta = StreamingMetaBlocker(index, consistency="fast")
        for _, profile in figure1_dirty.iter_profiles():
            hood = {c.profile_id for c in meta.neighborhood(profile.profile_id)}
            kept = {c.profile_id for c in meta.candidates(profile.profile_id)}
            assert kept <= hood


class TestBatchEquivalence:
    """Exact-view queries reproduce the batch retained neighbourhoods."""

    @pytest.mark.parametrize("weighting", [
        WeightingScheme.CHI_H, WeightingScheme.CBS, WeightingScheme.JS,
        WeightingScheme.ECBS, WeightingScheme.ARCS,
    ])
    @pytest.mark.parametrize("pruning", [
        BlastPruning(),
        WeightNodePruning(reciprocal=False),
        WeightNodePruning(reciprocal=True),
        CardinalityNodePruning(reciprocal=False),
        CardinalityNodePruning(reciprocal=True),
    ], ids=["blast", "wnp1", "wnp2", "cnp1", "cnp2"])
    @pytest.mark.parametrize("backend", BACKENDS.names())
    def test_figure1_dirty(self, figure1_dirty, weighting, pruning, backend):
        # One config drives both sides: its backend runs the batch
        # meta-blocking, and the session built from it must agree.
        config = BlastConfig(backend=backend, weighting=weighting)
        retained = (
            build_pipeline(config, blocker="token", pruning=pruning)
            .run(figure1_dirty)
            .blocks.distinct_pairs()
        )
        session = StreamingSession(config, pruning=pruning)
        for _, profile in figure1_dirty.iter_profiles():
            session.upsert(profile)
        neighbourhoods = streamed_neighbourhoods(
            figure1_dirty, session.metablocker
        )
        for gidx, partners in neighbourhoods.items():
            expected = {
                j if i == gidx else i
                for i, j in retained
                if gidx in (i, j)
            }
            assert partners == expected, (gidx, weighting, pruning)

    def test_figure1_clean_clean_blast(self, figure1_clean_clean):
        retained = batch_retained(
            figure1_clean_clean, WeightingScheme.CHI_H, BlastPruning()
        )
        meta = StreamingMetaBlocker(
            build_index(figure1_clean_clean), consistency="exact"
        )
        neighbourhoods = streamed_neighbourhoods(figure1_clean_clean, meta)
        pairs = {
            (min(g, o), max(g, o))
            for g, partners in neighbourhoods.items()
            for o in partners
        }
        assert pairs == retained
