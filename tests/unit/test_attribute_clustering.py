"""Tests for the Attribute Clustering baseline, contrasted with LMI."""

import pytest

from repro.schema.attribute_clustering import AttributeClustering
from repro.schema.attribute_profile import AttributeProfile
from repro.schema.lmi import LooseAttributeMatchInduction


def _profile(source: int, name: str, tokens: set[str]) -> AttributeProfile:
    return AttributeProfile(source, name, frozenset(tokens))


class TestAttributeClustering:
    def test_best_match_links(self):
        p1 = [_profile(0, "name", {"ann", "bob"})]
        p2 = [_profile(1, "fullname", {"ann", "bob", "carl"})]
        part = AttributeClustering().induce(p1, p2)
        assert part.cluster_of(0, "name") == part.cluster_of(1, "fullname") != 0

    def test_zero_similarity_stays_singleton(self):
        p1 = [_profile(0, "a", {"x"})]
        p2 = [_profile(1, "b", {"y"})]
        part = AttributeClustering().induce(p1, p2)
        assert part.cluster_of(0, "a") == 0

    def test_chains_through_best_matches(self):
        # a -- b similarity 0.5, b -- c similarity 0.5, a -- c zero.
        # AC links a->b and c->b, chaining all three into one cluster even
        # though a and c share nothing: the non-cohesive behaviour.
        a = _profile(0, "a", {"x1", "x2"})
        b = _profile(1, "b", {"x1", "x2", "y1", "y2"})
        c = _profile(0, "c", {"y1", "y2"})
        part = AttributeClustering().induce([a, c], [b])
        assert (
            part.cluster_of(0, "a")
            == part.cluster_of(1, "b")
            == part.cluster_of(0, "c")
            != 0
        )

    def test_lmi_is_more_cohesive_than_ac_on_chain(self):
        # Same topology as above: LMI with strict alpha only links mutual
        # nearly-best candidates; a and c tie as b's best (0.5 each), and b
        # is best for both, so LMI *also* merges here - unless alpha
        # requires strict dominance. Use asymmetric similarities instead:
        a = _profile(0, "a", {"x1", "x2", "x3"})
        b = _profile(1, "b", {"x1", "x2", "x3", "y1", "y2", "y3", "y4", "y5"})
        c = _profile(0, "c", {"y1", "y2", "y3", "y4", "y5"})
        # sim(a,b)=3/8, sim(c,b)=5/8; b's best is c; with alpha=0.9 a is not
        # a candidate of b, so LMI keeps a out...
        lmi = LooseAttributeMatchInduction(alpha=0.9).induce([a, c], [b])
        assert lmi.cluster_of(0, "a") == 0
        assert lmi.cluster_of(0, "c") == lmi.cluster_of(1, "b") != 0
        # ...while AC links a to its best match b regardless.
        ac = AttributeClustering().induce([a, c], [b])
        assert ac.cluster_of(0, "a") == ac.cluster_of(1, "b")

    def test_dirty_mode(self):
        profiles = [
            _profile(0, "first", {"ann", "bob"}),
            _profile(0, "nickname", {"ann", "bob"}),
            _profile(0, "year", {"1985"}),
        ]
        part = AttributeClustering().induce(profiles, None)
        assert part.cluster_of(0, "first") == part.cluster_of(0, "nickname") != 0

    def test_candidate_pairs_respected(self):
        a = _profile(0, "a", {"x"})
        b = _profile(1, "b", {"x"})
        c = _profile(1, "c", {"x"})
        part = AttributeClustering().induce(
            [a], [b, c], candidate_pairs=[((0, "a"), (1, "b"))]
        )
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b") != 0
        assert part.cluster_of(1, "c") == 0

    def test_glue_disabled(self):
        p1 = [_profile(0, "a", {"x"})]
        p2 = [_profile(1, "b", {"y"})]
        part = AttributeClustering(glue_cluster=False).induce(p1, p2)
        assert part.cluster_of(0, "a") is None

    def test_similarity_slot_is_gone(self):
        with pytest.raises(TypeError):
            AttributeClustering(similarity=lambda a, b: 1.0)

    def test_tie_goes_to_smallest_ref_clean_clean(self):
        # sim(a, b1) = 1/3 and sim(a, b2) = 2/6 tie: a links to b1 only,
        # and b2's own best is c, so b2 stays out of a's cluster.
        a = _profile(0, "a", {"x", "y", "z"})
        c = _profile(0, "c", {"y", "z", "q1", "q2", "q3"})
        b1 = _profile(1, "b1", {"x"})
        b2 = _profile(1, "b2", {"y", "z", "q1", "q2", "q3"})
        part = AttributeClustering().induce([a, c], [b1, b2])
        assert part.to_dict()["clusters"] == [
            [[0, "a"], [1, "b1"]],
            [[0, "c"], [1, "b2"]],
        ]

    def test_tie_goes_to_smaller_id_partner_dirty(self):
        # m's partners k (smaller ref) and p, q (larger refs) tie at 1/2;
        # p and q are each other's best.  m links to k, not to p or q.
        profiles = [
            _profile(0, "k", {"t1"}),
            _profile(0, "m", {"t1", "t2"}),
            _profile(0, "p", {"t2"}),
            _profile(0, "q", {"t2"}),
        ]
        part = AttributeClustering().induce(profiles, None)
        assert part.to_dict()["clusters"] == [
            [[0, "k"], [0, "m"]],
            [[0, "p"], [0, "q"]],
        ]

    def test_token_less_attribute_lands_in_glue(self):
        p1 = [_profile(0, "a", {"x"}), _profile(0, "void", set())]
        p2 = [_profile(1, "b", {"x"})]
        part = AttributeClustering().induce(p1, p2)
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b") == 1
        assert part.members(0) == {(0, "void")}
        bare = AttributeClustering(glue_cluster=False).induce(p1, p2)
        assert bare.cluster_of(0, "void") is None
