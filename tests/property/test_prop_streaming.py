"""Property-based equivalence: stream replay vs the batch pipeline.

The streaming subsystem's headline guarantee: replaying a dataset through
an :class:`~repro.streaming.IncrementalBlockIndex` and querying every
profile over the ``exact`` view reproduces the batch pipeline's retained
neighbourhoods — token blocking (plain or cluster-disambiguated) ->
Block Purging -> Block Filtering -> weighting -> node-centric pruning —
*for every profile*, on any clean-clean or dirty collection, for every
supported weighting scheme and node-centric pruning scheme, and
regardless of interleaved deletes.  Underneath it sit two identities: every
edge weight a query reports equals the batch python reference
(``BlockingGraph`` + ``compute_weights``) bit for bit, and the exact view's
block collection equals the string-keyed ``build_blocks`` -> purging ->
filtering rebuild.  Hypothesis hammers these contracts with random
collections.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _block_oracles import assert_same_index
from repro.blocking.base import build_blocks
from repro.blocking.filtering import block_filtering
from repro.blocking.purging import block_purging
from repro.blocking.schema_aware import make_key_entropy
from repro.core import BlastConfig, prepare_blocks
from repro.core.stages import SchemaExtraction
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.datasets import load_clean_clean, load_dirty
from repro.graph import BlockingGraph, WeightingScheme, compute_weights
from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    WeightNodePruning,
)
from repro.schema.partition import AttributePartitioning
from repro.streaming import IncrementalBlockIndex, StreamingMetaBlocker
from repro.streaming.views import ExactStreamView

ATTRIBUTES = ("name", "job", "city")
WORDS = ("abram", "ellen", "smith", "jones", "retail", "seller",
         "york", "main", "street")

profiles = st.builds(
    lambda pid, pairs: EntityProfile(pid, tuple(pairs)),
    pid=st.uuids().map(str),
    pairs=st.lists(
        st.tuples(
            st.sampled_from(ATTRIBUTES),
            st.lists(
                st.sampled_from(WORDS), min_size=1, max_size=3
            ).map(" ".join),
        ),
        min_size=0,
        max_size=4,
    ),
)


def _unique_by_id(items):
    seen: set[str] = set()
    out = []
    for item in items:
        if item.profile_id not in seen:
            seen.add(item.profile_id)
            out.append(item)
    return out


profile_lists = st.lists(profiles, min_size=1, max_size=12).map(_unique_by_id)

dirty_datasets = profile_lists.map(
    lambda ps: ERDataset(
        EntityCollection(ps, "E"),
        None,
        GroundTruth([], clean_clean=False),
        name="prop-dirty",
    )
)

clean_clean_datasets = st.tuples(profile_lists, profile_lists).map(
    lambda pair: ERDataset(
        EntityCollection(pair[0], "E1"),
        EntityCollection(pair[1], "E2"),
        GroundTruth([], clean_clean=True),
        name="prop-cc",
    )
)

datasets = st.one_of(dirty_datasets, clean_clean_datasets)

PRUNINGS = [
    BlastPruning(),
    BlastPruning(c=1.5, d=3.0),
    WeightNodePruning(reciprocal=False),
    WeightNodePruning(reciprocal=True),
    CardinalityNodePruning(reciprocal=False),
    CardinalityNodePruning(reciprocal=True, k=2),
]

SCHEMES = [
    WeightingScheme.CHI_H,
    WeightingScheme.CBS,
    WeightingScheme.JS,
    WeightingScheme.ECBS,
    WeightingScheme.ARCS,
]


def partitioning_for(dataset: ERDataset) -> AttributePartitioning:
    """A deterministic two-cluster loose schema with non-trivial entropies."""
    sources = (0, 1) if dataset.is_clean_clean else (0,)
    return AttributePartitioning(
        clusters=[
            [(s, "name") for s in sources],
            [(s, "job") for s in sources],
        ],
        glue=[(s, "city") for s in sources],
        entropies={0: 0.5, 1: 1.75, 2: 0.25},
    )


def batch_neighbourhoods(dataset, scheme, pruning, partitioning=None):
    """gidx -> retained partner set from the batch pipeline."""
    blocks = prepare_blocks(dataset, partitioning=partitioning)
    graph = BlockingGraph(
        blocks,
        key_entropy=(
            None if partitioning is None else make_key_entropy(partitioning)
        ),
    )
    weights = compute_weights(graph, scheme)
    retained = pruning.prune(graph, weights)
    out: dict[int, set[int]] = {g: set() for g, _ in dataset.iter_profiles()}
    for i, j in retained:
        out[i].add(j)
        out[j].add(i)
    return out


def replayed_index(dataset, partitioning=None, deletions=()):
    """An index holding *dataset*, each gidx in *deletions* churned once
    (upserted, deleted, re-upserted) on the way — mutation that leaves the
    final state unchanged."""
    index = IncrementalBlockIndex(
        clean_clean=dataset.is_clean_clean, partitioning=partitioning
    )
    for gidx, profile in dataset.iter_profiles():
        source = dataset.source_of(gidx)
        index.upsert(profile, source=source)
        if gidx in deletions:
            index.delete(profile.profile_id, source=source)
            index.upsert(profile, source=source)
    return index


def gidx_of(dataset, candidate) -> int:
    if candidate.source == 0:
        return dataset.collection1.index_of(candidate.profile_id)
    return dataset.offset2 + dataset.collection2.index_of(candidate.profile_id)


def stream_neighbourhoods(
    dataset, scheme, pruning, partitioning=None, deletions=()
):
    """gidx -> retained partner set from per-profile streaming queries."""
    meta = StreamingMetaBlocker(
        replayed_index(dataset, partitioning, deletions),
        weighting=scheme,
        pruning=pruning,
        consistency="exact",
    )
    return {
        gidx: {
            gidx_of(dataset, c)
            for c in meta.candidates(
                profile.profile_id, source=dataset.source_of(gidx)
            )
        }
        for gidx, profile in dataset.iter_profiles()
    }


def batch_weights(dataset, scheme, entropy_boost, partitioning=None):
    """``(i, j) -> float.hex(w)`` of every edge, from the batch python
    reference (``BlockingGraph`` + ``compute_weights``)."""
    blocks = prepare_blocks(dataset, partitioning=partitioning)
    graph = BlockingGraph(
        blocks,
        key_entropy=(
            None if partitioning is None else make_key_entropy(partitioning)
        ),
    )
    weights = compute_weights(graph, scheme, entropy_boost=entropy_boost)
    return {edge: weight.hex() for edge, weight in weights.items()}


def stream_weights(dataset, index, scheme, entropy_boost):
    """``(i, j) -> float.hex(w)`` of every edge, from exact-view
    ``neighborhood()`` queries; both endpoints must report one weight."""
    meta = StreamingMetaBlocker(
        index,
        weighting=scheme,
        entropy_boost=entropy_boost,
        consistency="exact",
    )
    out: dict[tuple[int, int], str] = {}
    for gidx, profile in dataset.iter_profiles():
        for c in meta.neighborhood(
            profile.profile_id, source=dataset.source_of(gidx)
        ):
            other = gidx_of(dataset, c)
            edge = (min(gidx, other), max(gidx, other))
            assert out.setdefault(edge, c.weight.hex()) == c.weight.hex(), edge
    return out


def string_keyed_exact_collection(index):
    """The exact view's collection, rebuilt from string-keyed postings:
    ``build_blocks`` over ``key -> canonical members``, then purging and
    filtering."""
    live = sorted(index.live_nodes(), key=lambda n: (index.source_of(n), n))
    canonical = {node: position for position, node in enumerate(live)}
    keyed: dict = {}
    for kid in sorted(index.key_ids()):
        posting = index.posting_by_id(kid)
        left = {canonical[n] for n in posting.left}
        keyed[index.key_string(kid)] = (
            (left, {canonical[n] for n in posting.right})
            if index.clean_clean
            else left
        )
    collection = build_blocks(keyed, is_clean_clean=index.clean_clean)
    if len(collection) and index.num_profiles:
        collection = block_filtering(
            block_purging(
                collection,
                index.num_profiles,
                max_profile_ratio=index.purging_ratio,
                max_comparisons=index.max_comparisons,
            ),
            ratio=index.filtering_ratio,
        )
    return collection


class TestStreamMatchesBatch:
    @given(
        datasets,
        st.sampled_from(SCHEMES),
        st.sampled_from(PRUNINGS),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_profile_neighbourhood_token_blocking(
        self, dataset, scheme, pruning
    ):
        batch = batch_neighbourhoods(dataset, scheme, pruning)
        stream = stream_neighbourhoods(dataset, scheme, pruning)
        assert stream == batch

    @given(
        datasets,
        st.sampled_from(SCHEMES),
        st.sampled_from(PRUNINGS),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_profile_neighbourhood_schema_aware(
        self, dataset, scheme, pruning
    ):
        partitioning = partitioning_for(dataset)
        batch = batch_neighbourhoods(dataset, scheme, pruning, partitioning)
        stream = stream_neighbourhoods(dataset, scheme, pruning, partitioning)
        assert stream == batch

    @given(
        datasets,
        st.sampled_from(SCHEMES),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_view_weights_equal_batch_reference(
        self, dataset, scheme, entropy_boost, schema_aware, data
    ):
        gidxs = [g for g, _ in dataset.iter_profiles()]
        deletions = data.draw(
            st.sets(st.sampled_from(gidxs)), label="deletions"
        )
        partitioning = partitioning_for(dataset) if schema_aware else None
        batch = batch_weights(dataset, scheme, entropy_boost, partitioning)
        index = replayed_index(dataset, partitioning, deletions)
        stream = stream_weights(dataset, index, scheme, entropy_boost)
        assert stream == batch

    @given(datasets, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_view_collection_equals_string_keyed_rebuild(
        self, dataset, schema_aware, data
    ):
        gidxs = [g for g, _ in dataset.iter_profiles()]
        deletions = data.draw(
            st.sets(st.sampled_from(gidxs)), label="deletions"
        )
        dropped = data.draw(
            st.sets(st.sampled_from(gidxs)), label="dropped"
        )
        partitioning = partitioning_for(dataset) if schema_aware else None
        index = replayed_index(dataset, partitioning, deletions)
        for gidx, profile in dataset.iter_profiles():
            if gidx in dropped:  # churn that changes the final state
                index.delete(profile.profile_id, dataset.source_of(gidx))
        view = ExactStreamView(index)
        reference = string_keyed_exact_collection(index)
        assert view.collection.is_clean_clean == reference.is_clean_clean
        assert_same_index(view.collection.entity_index, reference.entity_index)
        assert list(view.collection) == list(reference)

    @given(datasets, st.data())
    @settings(max_examples=30, deadline=None)
    def test_interleaved_delete_reupsert_cycles_are_transparent(
        self, dataset, data
    ):
        gidxs = [g for g, _ in dataset.iter_profiles()]
        deletions = data.draw(
            st.sets(st.sampled_from(gidxs)), label="deletions"
        )
        batch = batch_neighbourhoods(
            dataset, WeightingScheme.CHI_H, BlastPruning()
        )
        stream = stream_neighbourhoods(
            dataset,
            WeightingScheme.CHI_H,
            BlastPruning(),
            deletions=deletions,
        )
        assert stream == batch


class TestDatasetWeights:
    """The same weight identity at dataset scale, over an extracted schema."""

    @pytest.mark.parametrize("name", ["ar1", "census"])
    @pytest.mark.parametrize(
        "scheme, entropy_boost",
        [(WeightingScheme.CHI_H, False), (WeightingScheme.ECBS, True)],
        ids=["chi_h", "ecbs-boost"],
    )
    def test_extracted_schema_weights_equal_batch_reference(
        self, name, scheme, entropy_boost
    ):
        loader = load_clean_clean if name == "ar1" else load_dirty
        dataset = loader(name, scale=0.3)
        partitioning = SchemaExtraction(BlastConfig()).extract(dataset)
        batch = batch_weights(dataset, scheme, entropy_boost, partitioning)
        index = replayed_index(dataset, partitioning)
        assert stream_weights(dataset, index, scheme, entropy_boost) == batch
