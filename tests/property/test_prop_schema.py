"""Differential suite: array attribute-match induction vs the set oracle.

``repro.schema`` runs LMI and Attribute Clustering as meta-blocking over
an attribute x token index; ``tests/_schema_oracles.py`` keeps the
pair-by-pair bodies they replaced.  Hypothesis draws attribute -> token-set
maps over a tiny vocabulary, so ties (equal Jaccards, equal maxima, equal
best partners) are the common case, and demands the same partitioning —
members, cluster ids, glue — through the public ``induce``.  The
dataset-level half demands the same of the whole stage, the LSH step and
entropies included, against the string oracle
(``tests/_blocker_oracles.py::string_schema``) on every seeded generator.
"""

import pytest
from hypothesis import given, settings, strategies as st

from _blocker_oracles import string_schema
from _schema_oracles import ac_oracle, lmi_oracle
from repro.core.config import BlastConfig
from repro.core.stages import SchemaExtraction
from repro.datasets import load_clean_clean, load_dirty
from repro.datasets.benchmarks import load_dbp_wide
from repro.schema.attribute_clustering import AttributeClustering
from repro.schema.attribute_profile import AttributeProfile
from repro.schema.lmi import LooseAttributeMatchInduction

VOCABULARY = tuple("abcdefgh")
NAMES = tuple(f"n{i}" for i in range(7))

token_sets = st.frozensets(st.sampled_from(VOCABULARY), max_size=6)  # may be empty
sources = st.dictionaries(st.sampled_from(NAMES), token_sets, max_size=7)
alphas = st.one_of(
    st.sampled_from([0.05, 0.25, 0.5, 0.9, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


def _profiles(source: int, attributes: dict[str, frozenset[str]]):
    return [AttributeProfile(source, name, tokens) for name, tokens in attributes.items()]


@st.composite
def tasks(draw):
    """``(profiles1, profiles2 | None, candidate_pairs | None)``."""
    profiles1 = _profiles(0, draw(sources))
    clean_clean = draw(st.booleans())
    profiles2 = _profiles(1, draw(sources)) if clean_clean else None
    if not draw(st.booleans()):
        return profiles1, profiles2, None
    refs1 = [p.ref for p in profiles1] + [(0, "ghost")]
    # Cross-source candidates only for clean-clean (the oracle would score
    # a same-source pair, the arrays ignore it); any pair for dirty.
    refs2 = [p.ref for p in profiles2] + [(1, "ghost")] if clean_clean else refs1
    pair = st.tuples(st.sampled_from(refs1), st.sampled_from(refs2))
    either_way = st.one_of(pair, pair.map(lambda p: (p[1], p[0])))
    return profiles1, profiles2, draw(st.lists(either_way, max_size=12))


class TestInduceEqualsOracle:
    @settings(deadline=None, max_examples=300)
    @given(tasks(), alphas, st.booleans())
    def test_lmi(self, task, alpha, glue_cluster):
        got = LooseAttributeMatchInduction(alpha, glue_cluster).induce(*task)
        want = lmi_oracle(*task, alpha=alpha, glue_cluster=glue_cluster)
        assert got.to_dict() == want.to_dict()

    @settings(deadline=None, max_examples=300)
    @given(tasks(), st.booleans())
    def test_attribute_clustering(self, task, glue_cluster):
        got = AttributeClustering(glue_cluster).induce(*task)
        want = ac_oracle(*task, glue_cluster=glue_cluster)
        assert got.to_dict() == want.to_dict()


CLEAN_CLEAN = ("ar1", "ar2", "prd", "mov", "dbp")
DIRTY = ("census", "cora", "cddb")


@pytest.fixture(scope="module", params=[*CLEAN_CLEAN, *DIRTY, "dbp-wide"])
def dataset(request):
    name = request.param
    if name == "dbp-wide":
        return load_dbp_wide(300, 0.1, seed=7)
    loader = load_clean_clean if name in CLEAN_CLEAN else load_dirty
    return loader(name, scale=0.3, seed=42)


@pytest.mark.parametrize("glue_cluster", [True, False], ids=["glue", "no-glue"])
@pytest.mark.parametrize("use_lsh", [False, True], ids=["exhaustive", "lsh"])
@pytest.mark.parametrize("induction", ["lmi", "ac"])
def test_stage_equals_oracle_plus_entropies(dataset, induction, use_lsh, glue_cluster):
    config = BlastConfig(
        induction=induction,
        use_lsh=use_lsh,
        lsh_threshold=0.3,
        glue_cluster=glue_cluster,
    )
    expected = string_schema(dataset, config)
    assert SchemaExtraction(config).extract(dataset).to_dict() == expected.to_dict()
