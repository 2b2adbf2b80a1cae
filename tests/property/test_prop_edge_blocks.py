"""Property-based tests: meta-blocking's output collection and PC/PQ.

``blocks_from_edges`` wraps an ``(E, 2)`` edge array as one CSR index
and ``evaluate_blocks`` answers "do i and j share a block" from an
index.  Both must equal their per-``Block`` oracles in
``tests/_block_oracles.py``: the lazy view, the counts and every index
array; and the detected duplicates of every registered blocker's output,
before and after meta-blocking.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from _block_oracles import (
    assert_same_index,
    oracle_blocks_from_edges,
    oracle_detected_duplicates,
)
from hypothesis import given, settings, strategies as st

from repro.blocking.base import build_blocks
from repro.blocking.schema_aware import make_key_entropy
from repro.core import BlastConfig
from repro.core.registry import BLOCKERS
from repro.core.stages import (
    BlockFilteringStage,
    BlockPurgingStage,
    Pipeline,
    PipelineContext,
    SchemaExtraction,
)
from repro.datasets import load_clean_clean, load_dirty
from repro.graph import MetaBlocker, blocks_from_edges
from repro.metrics import evaluate_blocks

#: Clean-clean ids: E1 is [0, 20), E2 is [20, 40).
SIDE = 20


@st.composite
def edge_lists(draw):
    """``(is_clean_clean, [(i, j), ...])`` with ``i < j``, duplicates allowed."""
    clean = draw(st.booleans())
    if clean:
        pair = st.tuples(
            st.integers(0, SIDE - 1), st.integers(SIDE, 2 * SIDE - 1)
        )
    else:
        pair = st.tuples(
            st.integers(0, 2 * SIDE - 1), st.integers(0, 2 * SIDE - 1)
        ).filter(lambda p: p[0] != p[1]).map(sorted).map(tuple)
    return clean, draw(st.lists(pair, max_size=40))


class TestBlocksFromEdgesMatchesOracle:
    @settings(deadline=None, max_examples=200)
    @given(
        edge_lists(),
        st.booleans(),
        st.sampled_from(["list", "int64", "int32"]),
    )
    def test_view_counts_and_index(self, drawn, presorted, form):
        clean, edges = drawn
        if presorted:
            edges = sorted(edges)
        given_edges = (
            edges if form == "list"
            else np.array(edges, dtype=form).reshape(-1, 2)
        )
        new = blocks_from_edges(given_edges, clean, presorted=presorted)
        oracle = oracle_blocks_from_edges(edges, clean, presorted=presorted)
        assert new._block_list is None  # the lazy view is what gets compared
        assert len(new) == len(oracle)
        assert new.aggregate_cardinality == oracle.aggregate_cardinality
        assert_same_index(new.entity_index, oracle.entity_index)
        assert [(b.key, b.left, b.right) for b in new] == [
            (b.key, b.left, b.right) for b in oracle
        ]


@st.composite
def collections_and_truth(draw):
    """A dirty or clean-clean collection plus truth pairs, some of whose
    ids lie beyond every indexed profile."""
    clean = draw(st.booleans())
    members = st.sets(st.integers(0, 2 * SIDE - 1), min_size=2, max_size=6)
    keyed = draw(st.dictionaries(st.sampled_from("abcdefghij"), members))
    if clean:
        keyed = {
            key: ({p for p in group if p < SIDE}, {p for p in group if p >= SIDE})
            for key, group in keyed.items()
        }
    truth = draw(
        st.sets(
            st.tuples(
                st.integers(0, 3 * SIDE), st.integers(0, 3 * SIDE)
            ).filter(lambda p: p[0] < p[1]),
            max_size=30,
        )
    )
    return build_blocks(keyed, clean), truth


def _truth(pairs) -> SimpleNamespace:
    pairs = frozenset(pairs)
    return SimpleNamespace(truth_pairs=pairs, num_duplicates=len(pairs))


class TestDetectedDuplicatesMatchesOracle:
    @settings(deadline=None, max_examples=200)
    @given(collections_and_truth())
    def test_random_collections(self, drawn):
        collection, truth = drawn
        quality = evaluate_blocks(collection, _truth(truth))
        assert quality.detected_duplicates == oracle_detected_duplicates(
            collection, truth
        )

    @pytest.mark.parametrize("kind", ["clean-clean", "dirty"])
    @pytest.mark.parametrize("blocker", BLOCKERS.names())
    def test_every_registered_blocker_before_and_after(self, kind, blocker):
        dataset, stages = _prepared(kind, blocker)
        index = stages[0].entity_index
        # Ids one and two past the index's dense range count as not found.
        past = index.node_block_counts.size
        truth = set(dataset.truth_pairs) | {(0, past), (past, past + 1)}
        for collection in stages:
            quality = evaluate_blocks(collection, _truth(truth))
            assert quality.detected_duplicates == oracle_detected_duplicates(
                collection, truth
            )
            assert evaluate_blocks(collection, dataset).detected_duplicates == (
                oracle_detected_duplicates(collection, dataset.truth_pairs)
            )


@lru_cache(maxsize=None)
def _prepared(kind: str, blocker: str):
    """The dataset and its blocker / filtered / meta-blocked collections."""
    if kind == "dirty":
        dataset = load_dirty("cora", scale=0.05, seed=11)
    else:
        dataset = load_clean_clean("ar1", scale=0.05, seed=11)
    config = BlastConfig(seed=7)
    blocking_stage = BLOCKERS.get(blocker)(config)
    context = PipelineContext(dataset)
    if getattr(blocking_stage, "needs_partitioning", False):
        Pipeline([SchemaExtraction(config)]).execute(context)
    Pipeline([blocking_stage]).execute(context)
    built = context.blocks
    Pipeline([BlockPurgingStage(), BlockFilteringStage()]).execute(context)
    key_entropy = (
        make_key_entropy(context.partitioning)
        if context.partitioning is not None
        else None
    )
    retained = MetaBlocker(key_entropy=key_entropy).run(context.blocks)
    return dataset, (built, context.blocks, retained)
