"""Property-based differential test: the ``fast`` view vs its set oracle.

The ``fast`` view answers arrival-time queries from posting arrays and
per-key / per-node counts that the index keeps up to date on write.  Its
answers are pinned here against :mod:`_stream_oracles`, the per-key view
over set-based postings rebuilt from each live node's key ids: after
every op of a random upsert / delete / re-upsert sequence, every live
node's gathered statistics (neighbours, shared-block counts and the
``float.hex`` of both masses), its ``|B_i|``, the view totals and
``candidates(k)`` must agree exactly — clean-clean and dirty, with and
without a loose schema, under every streaming weighting scheme and every
node-centric pruning.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from _stream_oracles import OracleFastView, OracleMetaBlocker
from repro.data import EntityProfile
from repro.graph import WeightingScheme
from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    WeightNodePruning,
)
from repro.schema.partition import AttributePartitioning
from repro.streaming import IncrementalBlockIndex, StreamingMetaBlocker
from repro.streaming.views import FastStreamView

ATTRIBUTES = ("name", "job", "city")
WORDS = ("abram", "ellen", "smith", "jones", "retail", "seller",
         "york", "main", "street")
IDS = ("a", "b", "c", "d", "e", "f", "g")

SCHEMES = [
    WeightingScheme.CHI_H,
    WeightingScheme.CBS,
    WeightingScheme.JS,
    WeightingScheme.ECBS,
    WeightingScheme.ARCS,
]

PRUNINGS = [
    BlastPruning(),
    BlastPruning(c=1.5, d=3.0),
    WeightNodePruning(reciprocal=False),
    WeightNodePruning(reciprocal=True),
    CardinalityNodePruning(reciprocal=False),
    CardinalityNodePruning(reciprocal=True, k=2),
]

attribute_pairs = st.lists(
    st.tuples(
        st.sampled_from(ATTRIBUTES),
        st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
            " ".join
        ),
    ),
    min_size=0,
    max_size=4,
)

#: ``(verb, profile id, source, attribute pairs)``; a repeated id re-upserts
#: (with new keys, or identically) or deletes, so node ids revive.
ops = st.lists(
    st.tuples(
        st.sampled_from(("upsert", "upsert", "delete")),
        st.sampled_from(IDS),
        st.integers(0, 1),
        attribute_pairs,
    ),
    min_size=1,
    max_size=18,
)

index_settings = st.fixed_dictionaries(
    {
        "clean_clean": st.booleans(),
        "purging_ratio": st.sampled_from((0.5, 1.0)),
        "filtering_ratio": st.sampled_from((0.5, 0.8, 1.0)),
        "max_comparisons": st.sampled_from((None, 2, 6)),
    }
)


def partitioning_for(clean_clean: bool) -> AttributePartitioning:
    """A deterministic two-cluster loose schema with non-trivial entropies."""
    sources = (0, 1) if clean_clean else (0,)
    return AttributePartitioning(
        clusters=[
            [(s, "name") for s in sources],
            [(s, "job") for s in sources],
        ],
        glue=[(s, "city") for s in sources],
        entropies={0: 0.5, 1: 1.75, 2: 0.25},
    )


def hexes(values: np.ndarray) -> list[str]:
    return [value.hex() for value in values.tolist()]


def assert_views_agree(index: IncrementalBlockIndex) -> None:
    fast, oracle = FastStreamView(index), OracleFastView(index)
    assert fast.total_blocks == oracle.total_blocks
    assert fast.num_nodes == oracle.num_nodes
    assert fast.total_assignments == oracle.total_assignments
    live = np.asarray(index.live_nodes(), dtype=np.int64)
    assert fast.node_blocks(live).tolist() == oracle.node_blocks(live).tolist()
    for node in live.tolist():
        assert fast.node_blocks_scalar(node) == oracle.node_blocks_scalar(node)
        got, want = fast.gather(node), oracle.gather(node)
        assert got.neighbors.tolist() == want.neighbors.tolist(), node
        assert got.shared.tolist() == want.shared.tolist(), node
        assert hexes(got.arcs_mass) == hexes(want.arcs_mass), node
        assert hexes(got.entropy_mass) == hexes(want.entropy_mass), node


class TestFastViewMatchesSetOracle:
    @given(
        ops,
        index_settings,
        st.booleans(),
        st.sampled_from(SCHEMES),
        st.sampled_from(PRUNINGS),
        st.booleans(),
        st.sampled_from((None, 1, 2, 5)),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_live_node_after_every_op(
        self, op_list, config, schema_aware, scheme, pruning, boost, k
    ):
        clean_clean = config["clean_clean"]
        index = IncrementalBlockIndex(
            partitioning=partitioning_for(clean_clean) if schema_aware else None,
            **config,
        )
        options = dict(weighting=scheme, pruning=pruning, entropy_boost=boost)
        meta = StreamingMetaBlocker(index, consistency="fast", **options)
        oracle = OracleMetaBlocker(index, **options)
        for verb, pid, source, pairs in op_list:
            source = source if clean_clean else 0
            if verb == "upsert":
                index.upsert(EntityProfile(pid, tuple(pairs)), source=source)
            else:
                index.delete(pid, source=source)
            assert_views_agree(index)
            for node in index.live_nodes():
                ref = index.profile_of(node).profile_id
                source = index.source_of(node)
                assert meta.candidates(ref, k=k, source=source) == (
                    oracle.top_k(ref, k, source=source)
                )


def test_equal_size_keys_are_cut_in_key_string_order():
    # "smith" is interned before "abram", so id order and string order
    # disagree; both keys hold two members and filtering keeps one.
    index = IncrementalBlockIndex(purging_ratio=1.0, filtering_ratio=0.5)
    for pid, text in (("a", "smith"), ("b", "abram"), ("c", "smith abram")):
        index.upsert(EntityProfile.from_dict(pid, {"name": text}))
    node = index.node_of("c")
    want = [index.node_of("b")]
    assert FastStreamView(index).gather(node).neighbors.tolist() == want
    assert OracleFastView(index).gather(node).neighbors.tolist() == want
