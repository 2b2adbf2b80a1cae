"""Figure 8: contribution of each BLAST meta-blocking component.

For every dataset (inputs are the LMI block collections, as in the paper):

* ``wnp`` — classical WNP, the average of wnp1 and wnp2 over the five
  traditional weighting schemes;
* ``chi`` — BLAST with the aggregate entropy switched off (pure
  chi-squared weighting);
* ``wsh`` — BLAST's pruning over traditional weighting schemes adapted to
  use the aggregate entropy (averaged over the five schemes);
* ``bch`` — full BLAST (chi-squared x entropy).
"""

from harness import (
    blocks_L,
    chi_h_mb_row,
    clean_dataset,
    partitioning_of,
    traditional_mb_row,
    write_result,
)

from repro.blocking.schema_aware import make_key_entropy
from repro.core import MetaBlockingStage, PipelineContext
from repro.graph import MetaBlocker, WeightingScheme
from repro.graph.pruning import BlastPruning, WeightNodePruning
from repro.metrics import evaluate_blocks

DATASETS = ("ar1", "ar2", "prd", "mov", "dbp")


def _ablation_quality(name: str, stage: MetaBlockingStage):
    """PC/PQ of one meta-blocking ablation applied to the LMI blocks."""
    dataset = clean_dataset(name)
    context = PipelineContext(
        dataset, partitioning=partitioning_of(name), blocks=blocks_L(name)
    )
    stage.apply(context)
    quality = evaluate_blocks(context.blocks, dataset)
    return quality.pair_completeness, quality.pair_quality


def _wsh_quality(name: str):
    """BLAST pruning over entropy-boosted traditional weighting schemes."""
    dataset = clean_dataset(name)
    key_entropy = make_key_entropy(partitioning_of(name))
    pcs, pqs = [], []
    for scheme in WeightingScheme.traditional():
        meta = MetaBlocker(
            weighting=scheme,
            pruning=BlastPruning(),
            entropy_boost=True,
            key_entropy=key_entropy,
        )
        quality = evaluate_blocks(meta.run(blocks_L(name)), dataset)
        pcs.append(quality.pair_completeness)
        pqs.append(quality.pair_quality)
    return sum(pcs) / len(pcs), sum(pqs) / len(pqs)


def _chi_quality(name: str):
    """BLAST without the entropy factor (the `chi` configuration)."""
    return _ablation_quality(name, MetaBlockingStage(use_entropy=False))


def test_fig8_component_contributions(benchmark):
    def build_rows():
        rows = ["Figure 8 - PC / PQ per configuration (inputs: LMI blocking)",
                f"{'dataset':>8} {'':>6} {'wnp':>10} {'chi':>10} "
                f"{'wsh':>10} {'bch':>10}"]
        for name in DATASETS:
            dataset = clean_dataset(name)
            collection = blocks_L(name)
            part = partitioning_of(name)

            wnp1 = traditional_mb_row("w1", collection, dataset,
                                      lambda: WeightNodePruning(False))
            wnp2 = traditional_mb_row("w2", collection, dataset,
                                      lambda: WeightNodePruning(True))
            wnp_pc = (wnp1.quality.pair_completeness
                      + wnp2.quality.pair_completeness) / 2
            wnp_pq = (wnp1.quality.pair_quality
                      + wnp2.quality.pair_quality) / 2
            chi_pc, chi_pq = _chi_quality(name)
            wsh_pc, wsh_pq = _wsh_quality(name)
            bch = chi_h_mb_row("bch", collection, dataset, BlastPruning(), part)
            rows.append(
                f"{name:>8} {'PC':>6} {wnp_pc:10.2%} {chi_pc:10.2%} "
                f"{wsh_pc:10.2%} {bch.quality.pair_completeness:10.2%}")
            rows.append(
                f"{'':>8} {'PQ':>6} {wnp_pq:10.4%} {chi_pq:10.4%} "
                f"{wsh_pq:10.4%} {bch.quality.pair_quality:10.4%}")
        return rows

    rows = benchmark.pedantic(build_rows, iterations=1, rounds=1)
    write_result("fig8_components", "\n".join(rows))
