"""Tests for the MetaBlocker driver."""

from repro.blocking import TokenBlocking
from repro.graph import MetaBlocker, WeightingScheme, blocks_from_edges
from repro.graph.pruning import WeightNodePruning
from repro.metrics import evaluate_blocks


class TestBlocksFromEdges:
    def test_clean_clean_pair_blocks(self):
        bc = blocks_from_edges([(0, 5), (1, 6)], is_clean_clean=True)
        assert len(bc) == 2
        assert bc.aggregate_cardinality == 2
        assert bc[0].left == {0} and bc[0].right == {5}

    def test_dirty_pair_blocks(self):
        bc = blocks_from_edges([(1, 2)], is_clean_clean=False)
        assert bc[0].left == {1, 2}
        assert bc[0].num_comparisons == 1

    def test_empty(self):
        assert len(blocks_from_edges([], True)) == 0

    def test_deterministic_order(self):
        bc = blocks_from_edges([(3, 7), (0, 5)], True)
        assert [b.key for b in bc] == ["e:0-5", "e:3-7"]


class TestMetaBlocker:
    def test_output_is_redundancy_free(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        out = MetaBlocker().run(blocks)
        assert out.aggregate_cardinality == len(out)  # 1 comparison per block

    def test_improves_pq_without_losing_matches(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        before = evaluate_blocks(blocks, figure1_dirty)
        after = evaluate_blocks(MetaBlocker().run(blocks), figure1_dirty)
        assert after.pair_quality > before.pair_quality
        assert after.pair_completeness == before.pair_completeness

    def test_pluggable_weighting_and_pruning(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        mb = MetaBlocker(
            weighting=WeightingScheme.JS,
            pruning=WeightNodePruning(reciprocal=True),
        )
        out = mb.run(blocks)
        assert 0 < len(out) <= 6

    def test_key_entropy_changes_retention(self, figure1_dirty):
        """Figures 2-3: with name-blocks weighted 3.5 and others 2.0, the
        superfluous p2-p3 edge is pruned; without entropy it survives."""
        from repro.blocking import LooselySchemaAwareBlocking
        from repro.blocking.schema_aware import make_key_entropy
        from repro.schema.partition import AttributePartitioning

        partitioning = AttributePartitioning(
            clusters=[
                {(0, "Name"), (0, "FirstName"), (0, "SecondName"),
                 (0, "name1"), (0, "name2"), (0, "full name")},
            ],
            glue={(0, "profession"), (0, "year"), (0, "occupation"),
                  (0, "birth year"), (0, "job"), (0, "work info"),
                  (0, "b. date"), (0, "Addr."), (0, "mail"), (0, "Loc"),
                  (0, "loc")},
        ).with_entropies({1: 3.5, 0: 2.0})

        blocks = LooselySchemaAwareBlocking(partitioning).build(figure1_dirty)
        with_entropy = MetaBlocker(key_entropy=make_key_entropy(partitioning))
        out = with_entropy.run(blocks)
        retained = {tuple(sorted(b.profiles)) for b in out}
        assert (0, 2) in retained  # p1-p3 (true match)
        assert (1, 3) in retained  # p2-p4 (true match)
        assert (1, 2) not in retained  # p2-p3: the superfluous edge of Fig 3c
