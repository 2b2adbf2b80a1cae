"""Tests for Loose attribute-Match Induction (Algorithm 1)."""

import pytest

from repro.schema.attribute_profile import AttributeProfile
from repro.schema.lmi import LooseAttributeMatchInduction


def _profile(source: int, name: str, tokens: set[str]) -> AttributeProfile:
    return AttributeProfile(source, name, frozenset(tokens))


class TestClustering:
    def test_identical_attributes_cluster(self):
        p1 = [_profile(0, "name", {"john", "ellen", "smith"})]
        p2 = [_profile(1, "fullname", {"john", "ellen", "smith"})]
        part = LooseAttributeMatchInduction().induce(p1, p2)
        assert part.cluster_of(0, "name") == part.cluster_of(1, "fullname") != 0

    def test_dissimilar_attributes_fall_to_glue(self):
        p1 = [_profile(0, "name", {"john", "ellen"})]
        p2 = [_profile(1, "year", {"1985", "1990"})]
        part = LooseAttributeMatchInduction().induce(p1, p2)
        assert part.cluster_of(0, "name") == 0
        assert part.cluster_of(1, "year") == 0

    def test_mutuality_required(self):
        # b is a's best match, but b's best match is c (by a wide margin):
        # with a strict alpha, a<->b is not mutual and no cluster forms
        # containing a.
        a = _profile(0, "a", {"x", "y", "q1", "q2", "q3", "q4"})
        b = _profile(1, "b", {"x", "y", "z", "w"})
        c = _profile(0, "c", {"x", "y", "z", "w"})
        part = LooseAttributeMatchInduction(alpha=0.99).induce([a, c], [b])
        assert part.cluster_of(0, "c") == part.cluster_of(1, "b") != 0
        assert part.cluster_of(0, "a") == 0

    def test_alpha_relaxes_candidates(self):
        # same topology, forgiving alpha: a joins the component.
        # sim(a,b) = 2/8 = 0.25, sim(c,b) = 1.0 -> a is a candidate of b
        # only when 0.25 >= alpha * 1.0, i.e. alpha <= 0.25.
        a = _profile(0, "a", {"x", "y", "q1", "q2", "q3", "q4"})
        b = _profile(1, "b", {"x", "y", "z", "w"})
        c = _profile(0, "c", {"x", "y", "z", "w"})
        part = LooseAttributeMatchInduction(alpha=0.2).induce([a, c], [b])
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b")

    def test_zero_similarity_never_links(self):
        p1 = [_profile(0, "a", {"x"})]
        p2 = [_profile(1, "b", {"y"})]
        part = LooseAttributeMatchInduction(alpha=0.1).induce(p1, p2)
        assert part.num_clusters == 1  # glue only

    def test_glue_disabled(self):
        p1 = [_profile(0, "a", {"x"})]
        p2 = [_profile(1, "b", {"y"})]
        part = LooseAttributeMatchInduction(glue_cluster=False).induce(p1, p2)
        assert part.num_clusters == 0
        assert part.cluster_of(0, "a") is None


class TestDirtyMode:
    def test_within_source_pairs(self):
        profiles = [
            _profile(0, "first", {"john", "ellen", "ann"}),
            _profile(0, "nick", {"john", "ellen", "ann"}),
            _profile(0, "year", {"1985"}),
        ]
        part = LooseAttributeMatchInduction().induce(profiles, None)
        assert part.cluster_of(0, "first") == part.cluster_of(0, "nick") != 0
        assert part.cluster_of(0, "year") == 0


class TestCandidatePairs:
    def test_restricts_scored_pairs(self):
        name1 = _profile(0, "name1", {"a", "b", "c"})
        name2 = _profile(1, "name2", {"a", "b", "c"})
        street1 = _profile(0, "street1", {"a", "b", "c"})
        # without candidates street1 would also cluster with name2; the
        # candidate list excludes it.
        part = LooseAttributeMatchInduction().induce(
            [name1, street1], [name2],
            candidate_pairs=[((0, "name1"), (1, "name2"))],
        )
        assert part.cluster_of(0, "name1") == part.cluster_of(1, "name2") != 0
        assert part.cluster_of(0, "street1") == 0

    def test_unknown_refs_in_candidates_ignored(self):
        p1 = [_profile(0, "a", {"x"})]
        p2 = [_profile(1, "b", {"x"})]
        part = LooseAttributeMatchInduction().induce(
            p1, p2,
            candidate_pairs=[((0, "a"), (1, "b")), ((0, "ghost"), (1, "b"))],
        )
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b") != 0


class TestValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            LooseAttributeMatchInduction(alpha=0.0)
        with pytest.raises(ValueError):
            LooseAttributeMatchInduction(alpha=1.5)

    def test_duplicate_refs_rejected(self):
        p = _profile(0, "a", {"x"})
        with pytest.raises(ValueError, match="duplicate"):
            LooseAttributeMatchInduction().induce([p], [p])

    def test_similarity_slot_is_gone(self):
        # Other representations score the edge arrays and call decide().
        with pytest.raises(TypeError):
            LooseAttributeMatchInduction(similarity=lambda a, b: 1.0)


class TestArrayContracts:
    """What the array path must not blur (pinned against the set oracle)."""

    def test_threshold_is_inclusive_on_the_float_product(self):
        # sim(a,b) = 2/8 = 0.25 and max_b = sim(c,b) = 1.0: at alpha = 0.25
        # the test reads 0.25 >= 0.25 * 1.0 and a is b's candidate.
        a = _profile(0, "a", {"x", "y", "q1", "q2", "q3", "q4"})
        b = _profile(1, "b", {"x", "y", "z", "w"})
        c = _profile(0, "c", {"x", "y", "z", "w"})
        part = LooseAttributeMatchInduction(alpha=0.25).induce([a, c], [b])
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b") != 0
        strict = LooseAttributeMatchInduction(alpha=0.2500001).induce([a, c], [b])
        assert strict.cluster_of(0, "a") == 0

    def test_equal_ratios_are_the_same_float(self):
        # sim(a,b) = 1/3 and sim(c,b) = 2/6: one float, so even alpha = 1.0
        # makes both b's candidates and all three cluster.
        a = _profile(0, "a", {"x"})
        b = _profile(1, "b", {"x", "y", "z"})
        c = _profile(0, "c", {"y", "z", "q1", "q2", "q3"})
        part = LooseAttributeMatchInduction(alpha=1.0).induce([a, c], [b])
        assert part.to_dict()["clusters"] == [[[0, "a"], [0, "c"], [1, "b"]]]

    def test_cluster_ids_follow_smallest_member_and_empty_goes_to_glue(self):
        profiles1 = [
            _profile(0, "zeta", {"p", "q"}),
            _profile(0, "beta", {"m", "n"}),
            _profile(0, "void", set()),
        ]
        profiles2 = [
            _profile(1, "alpha", {"p", "q"}),
            _profile(1, "omega", {"m", "n"}),
        ]
        part = LooseAttributeMatchInduction().induce(profiles1, profiles2)
        assert part.to_dict()["clusters"] == [
            [[0, "beta"], [1, "omega"]],
            [[0, "zeta"], [1, "alpha"]],
        ]
        assert part.cluster_of(0, "beta") == 1 and part.cluster_of(0, "zeta") == 2
        assert part.members(0) == {(0, "void")}
        bare = LooseAttributeMatchInduction(glue_cluster=False).induce(
            profiles1, profiles2
        )
        assert bare.to_dict()["clusters"] == part.to_dict()["clusters"]
        assert bare.cluster_of(0, "void") is None

    def test_same_source_candidate_ignored_in_clean_clean(self):
        # Algorithm 1 scores A1 x A2 only, and lsh_candidate_pairs never
        # emits a same-source pair for a clean-clean task.
        a = _profile(0, "a", {"x", "y"})
        c = _profile(0, "c", {"x", "y"})
        b = _profile(1, "b", {"q"})
        part = LooseAttributeMatchInduction().induce(
            [a, c], [b], candidate_pairs=[((0, "a"), (0, "c"))]
        )
        assert part.num_clusters == 1  # glue only
        dirty = LooseAttributeMatchInduction().induce(
            [a, c, b], None, candidate_pairs=[((0, "c"), (0, "a"))]
        )
        assert dirty.cluster_of(0, "a") == dirty.cluster_of(0, "c") != 0

    def test_maxima_are_taken_over_candidates_only(self):
        # b's best overall is c (1.0), which the candidate list leaves out:
        # among the scored pairs a is b's maximum, so a-b is mutual.
        a = _profile(0, "a", {"x", "y", "q1", "q2", "q3", "q4"})
        b = _profile(1, "b", {"x", "y", "z", "w"})
        c = _profile(0, "c", {"x", "y", "z", "w"})
        part = LooseAttributeMatchInduction(alpha=0.99).induce(
            [a, c], [b], candidate_pairs=[((1, "b"), (0, "a"))]
        )
        assert part.cluster_of(0, "a") == part.cluster_of(1, "b") != 0
        assert part.cluster_of(0, "c") == 0
