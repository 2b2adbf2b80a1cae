"""Figure 10: PC under LSH-LMI with the glue cluster disabled.

Without the glue cluster, tokens of unclustered attributes are dropped.
Low LSH thresholds keep all similar attribute pairs as candidates and PC is
unaffected; past a critical threshold LMI misses similar attributes and PC
degrades — the paper's safety argument for conservative thresholds.

Several (rows, bands) configurations are swept, like the figure's legend.
"""

from harness import write_result

from repro.blocking import LooselySchemaAwareBlocking, block_purging
from repro.datasets.benchmarks import load_dbp_wide
from repro.lsh import LSHBanding, lsh_candidate_pairs
from repro.metrics import evaluate_blocks
from repro.schema.attribute_graph import AttributeGraph
from repro.schema.lmi import LooseAttributeMatchInduction

# (rows, bands) pairs: thresholds (1/b)^(1/r) ~ .10 / .26 / .51 / .71 /
# .79 / .93 — the last two are past the similarity of the noisy core
# attributes, where LMI must start missing clusters and PC must degrade.
CONFIGS = ((2, 100), (3, 60), (5, 30), (8, 15), (10, 10), (25, 6))


def test_fig10_pc_vs_lsh_threshold(benchmark):
    def build_rows():
        dataset = load_dbp_wide(num_rare=200, scale=0.5)
        graph = AttributeGraph.from_corpus(dataset.corpus, 2)
        lmi = LooseAttributeMatchInduction(glue_cluster=False)

        rows = ["Figure 10 - PC of LSH-LMI + Token Blocking, glue disabled",
                f"{'config':>14} {'threshold':>10} {'PC':>9} {'clusters':>9}"]
        for r, b in CONFIGS:
            banding = LSHBanding(bands=b, rows=r)
            restricted = graph.restricted_to(
                lsh_candidate_pairs(dataset.corpus, banding=banding, seed=42)
            )
            part = lmi.decide(restricted, restricted.jaccard())
            blocks = LooselySchemaAwareBlocking(part).build(dataset)
            blocks = block_purging(blocks, dataset.num_profiles)
            quality = evaluate_blocks(blocks, dataset)
            rows.append(
                f"{f'(r={r}, b={b})':>14} {banding.threshold:10.2f} "
                f"{quality.pair_completeness:9.2%} {part.num_clusters:9d}")
        return rows

    rows = benchmark.pedantic(build_rows, iterations=1, rounds=1)
    write_result("fig10_lsh_pc", "\n".join(rows))
