"""Integration: the paper's worked example (Figures 1-3) end to end.

These tests pin the narrative of Sections 1 and 3 to executable assertions:
Token Blocking produces Figure 1b; the blocking graph carries Figure 1c's
weights; attribute disambiguation splits the "abram" block (Figure 2);
entropy weighting plus BLAST pruning removes both superfluous edges while
keeping both matches (Figure 3c).
"""

from repro.blocking import LooselySchemaAwareBlocking, TokenBlocking
from repro.blocking.schema_aware import make_key_entropy
from repro.graph import (
    BlockingGraph,
    MetaBlocker,
    WeightingScheme,
    compute_weights,
)
from repro.core.config import BlastConfig
from repro.core.stages import SchemaExtraction
from repro.metrics import evaluate_blocks

P1, P2, P3, P4 = 0, 1, 2, 3


class TestFigure1:
    def test_token_blocking_gives_twelve_blocks(self, figure1_dirty):
        blocks = TokenBlocking().build(figure1_dirty)
        assert len(blocks) == 12

    def test_blocking_graph_weights(self, figure1_dirty):
        graph = BlockingGraph(TokenBlocking().build(figure1_dirty))
        cbs = compute_weights(graph, WeightingScheme.CBS)
        assert cbs[(P1, P3)] == 4
        assert cbs[(P2, P4)] == 4
        assert cbs[(P1, P4)] == 3
        assert cbs[(P2, P3)] == 4
        assert cbs[(P1, P2)] == 1
        assert cbs[(P3, P4)] == 1


class TestFigure2:
    def test_lmi_separates_names_from_streets(self, figure1_clean_clean):
        """LMI on the four profiles finds a person-name cluster distinct
        from the street/address cluster — the prerequisite of Figure 2."""
        part = SchemaExtraction(BlastConfig(alpha=0.8)).extract(figure1_clean_clean)
        name_cluster = part.cluster_of(0, "Name")
        street_cluster = part.cluster_of(0, "mail")
        assert name_cluster != street_cluster
        assert name_cluster != 0

    def test_disambiguation_lowers_superfluous_weights(self, figure1_dirty):
        """Figure 2b: after splitting "abram", the weights of the
        superfluous edges drop while the matches keep theirs."""
        from repro.schema.partition import AttributePartitioning

        part = AttributePartitioning(
            clusters=[{(0, "Name"), (0, "FirstName"), (0, "SecondName"),
                       (0, "name1"), (0, "name2"), (0, "full name")}],
            glue={(0, "profession"), (0, "year"), (0, "occupation"),
                  (0, "birth year"), (0, "job"), (0, "work info"),
                  (0, "b. date"), (0, "Addr."), (0, "mail"), (0, "Loc"),
                  (0, "loc")},
        )
        plain = compute_weights(
            BlockingGraph(TokenBlocking().build(figure1_dirty)),
            WeightingScheme.CBS,
        )
        aware = compute_weights(
            BlockingGraph(LooselySchemaAwareBlocking(part).build(figure1_dirty)),
            WeightingScheme.CBS,
        )
        # p1-p2 and p3-p4 shared only the ambiguous "abram": edges vanish.
        assert (P1, P2) not in aware and (P3, P4) not in aware
        assert (P1, P2) in plain and (P3, P4) in plain
        # the true matches keep their support
        assert aware[(P1, P3)] >= plain[(P1, P3)] - 1
        assert aware[(P2, P4)] >= plain[(P2, P4)] - 1


class TestFigure3:
    def test_full_blast_retains_exactly_the_matches(self, figure1_clean_clean):
        """Figure 3c: both superfluous comparisons removed, both matches kept."""
        ds = figure1_clean_clean
        part = SchemaExtraction(BlastConfig(alpha=0.8)).extract(ds)
        blocks = LooselySchemaAwareBlocking(part).build(ds)
        out = MetaBlocker(key_entropy=make_key_entropy(part)).run(blocks)
        quality = evaluate_blocks(out, ds)
        assert quality.pair_completeness == 1.0
        retained = {tuple(sorted(b.profiles)) for b in out}
        assert (P1, P3) in retained
        assert (P2, P4) in retained
        assert (P1, P4) not in retained  # removed in Figure 2c
