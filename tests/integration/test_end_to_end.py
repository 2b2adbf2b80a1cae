"""Integration: full pipelines on the synthetic benchmarks.

These tests assert the paper's headline claims at reduced scale:
meta-blocking raises PQ by orders of magnitude at nearly unchanged PC
(Definition 2), BLAST beats mean-threshold WNP on F1, LMI's automatic
partitioning matches a manual schema alignment on fully mappable data,
and the default Block Filtering ratio costs almost no PC (footnote 9).
"""

import pytest

from repro import (
    Blast,
    BlastConfig,
    MetaBlocker,
    WeightingScheme,
    evaluate_blocks,
    load_clean_clean,
    load_dirty,
    prepare_blocks,
)
from repro.blocking import StandardBlocking, block_filtering, block_purging
from repro.graph.pruning import WeightNodePruning


@pytest.fixture(scope="module")
def ar1():
    return load_clean_clean("ar1", scale=0.5, seed=11)


@pytest.fixture(scope="module")
def prd():
    return load_clean_clean("prd", scale=0.6, seed=11)


class TestDefinition2:
    """Meta-blocking: PQ(B') >> PQ(B) and PC(B') ~ PC(B)."""

    def test_blast_on_ar1(self, ar1):
        result = Blast().run(ar1)
        baseline = evaluate_blocks(prepare_blocks(ar1), ar1)
        final = evaluate_blocks(result.blocks, ar1)
        assert final.pair_quality > 10 * baseline.pair_quality
        assert final.pair_completeness >= baseline.pair_completeness - 0.06

    def test_blast_on_prd(self, prd):
        result = Blast().run(prd)
        baseline = evaluate_blocks(prepare_blocks(prd), prd)
        final = evaluate_blocks(result.blocks, prd)
        assert final.pair_quality > 5 * baseline.pair_quality
        assert final.pair_completeness >= baseline.pair_completeness - 0.06


class TestBlastVsTraditionalWnp:
    def test_blast_f1_beats_mean_threshold_wnp(self, ar1):
        result = Blast().run(ar1)
        blast_quality = evaluate_blocks(result.blocks, ar1)

        blocks = prepare_blocks(ar1)  # plain token blocking baseline
        best_wnp_f1 = 0.0
        for scheme in WeightingScheme.traditional():
            for reciprocal in (False, True):
                out = MetaBlocker(
                    weighting=scheme,
                    pruning=WeightNodePruning(reciprocal=reciprocal),
                ).run(blocks)
                best_wnp_f1 = max(best_wnp_f1, evaluate_blocks(out, ar1).f1)
        assert blast_quality.f1 > best_wnp_f1


class TestLmiEqualsManualAlignment:
    def test_standard_blocking_equivalence_on_fully_mappable(self, ar1):
        """Section 4.1: on fully mappable datasets the LMI partitioning is
        equivalent to the manual schema alignment, so BLAST meta-blocking
        over Standard Blocking (token mode) and over LMI blocking yield the
        same PC and PQ."""
        result = Blast().run(ar1)
        lmi_quality = evaluate_blocks(result.blocks, ar1)

        alignment = {"title": "paper title", "authors": "author list",
                     "venue": "publication venue", "year": "yr"}
        manual = StandardBlocking(alignment, key_mode="token").build(ar1)
        manual = block_purging(manual, ar1.num_profiles)
        manual = block_filtering(manual)
        manual_out = MetaBlocker().run(manual)
        manual_quality = evaluate_blocks(manual_out, ar1)

        assert lmi_quality.pair_completeness == pytest.approx(
            manual_quality.pair_completeness, abs=0.01
        )
        assert lmi_quality.pair_quality == pytest.approx(
            manual_quality.pair_quality, rel=0.1
        )


class TestFootnote9:
    def test_default_filtering_almost_keeps_pc_on_ar2(self):
        """Footnote 9: Block Filtering at 0.8 "almost does not affect PC":
        on ar2, the hardest fully mappable pair, at full default scale,
        BLAST loses less than one PC point against no filtering."""
        ds = load_clean_clean("ar2", scale=1.0, seed=42)
        pc = {
            ratio: evaluate_blocks(
                Blast(BlastConfig(filtering_ratio=ratio)).run(ds).blocks, ds
            ).pair_completeness
            for ratio in (0.8, 1.0)
        }
        assert pc[1.0] - pc[0.8] < 0.01


class TestDirtyER:
    def test_census_pipeline(self):
        ds = load_dirty("census", scale=0.5, seed=11)
        result = Blast().run(ds)
        quality = evaluate_blocks(result.blocks, ds)
        assert quality.pair_completeness > 0.7
        baseline = evaluate_blocks(prepare_blocks(ds), ds)
        assert quality.pair_quality > baseline.pair_quality

    def test_cora_high_precision(self):
        ds = load_dirty("cora", scale=0.5, seed=11)
        result = Blast().run(ds)
        quality = evaluate_blocks(result.blocks, ds)
        # heavy duplication: retained pairs are overwhelmingly matches
        assert quality.pair_quality > 0.5
        assert quality.pair_completeness > 0.6


class TestLshEquivalence:
    def test_lsh_pipeline_matches_exact_pipeline(self):
        """Section 4.3/4.4: with a conservative threshold the LSH step
        yields identical PC and PQ to exhaustive LMI."""
        ds = load_clean_clean("dbp", scale=0.3, seed=11)
        exact = Blast().run(ds)
        approx = Blast(BlastConfig(use_lsh=True, lsh_threshold=0.2, seed=5)).run(ds)
        q_exact = evaluate_blocks(exact.blocks, ds)
        q_approx = evaluate_blocks(approx.blocks, ds)
        assert q_approx.pair_completeness == pytest.approx(
            q_exact.pair_completeness, abs=0.01
        )
        assert q_approx.pair_quality == pytest.approx(
            q_exact.pair_quality, rel=0.05
        )


class TestEndToEndMatching:
    def test_blast_blocks_save_matching_time(self, ar1):
        """Section 4.2.2: executing the comparisons of the BLAST collection
        costs a fraction of executing the baseline's, at no recall loss."""
        from repro.matching import JaccardMatcher

        baseline = prepare_blocks(ar1)
        final = Blast().run(ar1).blocks
        matcher = JaccardMatcher(threshold=0.35)
        result_base = matcher.execute(baseline, ar1)
        result_blast = matcher.execute(final, ar1)
        assert result_blast.comparisons_executed < result_base.comparisons_executed / 5
        assert result_blast.recall >= result_base.recall - 0.05
