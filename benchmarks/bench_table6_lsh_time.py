"""Table 6: LMI run time as the LSH threshold varies.

The paper runs LMI on dbp's 30k x 50k attribute space: 12.5h exhaustively,
0.7-1.9h with LSH depending on the threshold, because its exhaustive LMI
scores the whole cross product.  This one scores only the attribute pairs
sharing a token, taken from an inverted attribute x token index, and the
LSH step masks that same index: its candidates are computed on top of it,
so at laptop scale the exhaustive row is the *floor* (571 x 571
attributes on a 2-CPU VM: exhaustive 0.03 s, LSH 0.07-0.11 s).  Higher thresholds still
admit fewer candidates and score fewer pairs; what LSH buys here is the
paper-fidelity candidate set (Figure 10), not time.  Every row times
Phase 1 (``SchemaExtraction``) and prints the pairs it really scored (the
attribute graph's edges) of the cross product.
"""

from harness import write_result

from repro.core.config import BlastConfig
from repro.core.stages import SchemaExtraction
from repro.datasets.benchmarks import load_dbp_wide
from repro.lsh import lsh_candidate_pairs
from repro.schema.attribute_graph import AttributeGraph
from repro.utils.timer import Timer

THRESHOLDS = (0.10, 0.22, 0.32, 0.41, 0.55, 0.64)


def test_table6_lmi_time_vs_threshold(benchmark):
    def run():
        dataset = load_dbp_wide(num_rare=550, scale=1.0)
        corpus = dataset.corpus
        # The pairs each row scores, counted outside the timed regions.
        graph = AttributeGraph.from_corpus(corpus, 2)
        sources = [source for source, _ in graph.refs]
        total_pairs = sources.count(0) * sources.count(1)

        rows = []
        with Timer() as exhaustive:
            exact = SchemaExtraction(BlastConfig(seed=42)).extract(dataset)
        rows.append(
            f"{'exhaustive':>12}: {exhaustive.elapsed:6.2f}s "
            f"({graph.src.size:,} of {total_pairs:,} pairs scored, "
            f"{exact.num_clusters} clusters)"
        )
        for threshold in THRESHOLDS:
            config = BlastConfig(use_lsh=True, lsh_threshold=threshold, seed=42)
            with Timer() as timer:
                part = SchemaExtraction(config).extract(dataset)
            candidates = lsh_candidate_pairs(
                corpus, threshold=threshold, num_hashes=150, seed=42
            )
            scored = graph.restricted_to(candidates).src.size
            rows.append(
                f"{'LSH.' + format(threshold, '.2f')[2:]:>12}: "
                f"{timer.elapsed:6.2f}s ({scored:,} of {total_pairs:,} pairs "
                f"scored, {len(candidates):,} candidates, "
                f"{part.num_clusters} clusters)"
            )
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    write_result(
        "table6_lsh_time",
        "Table 6 - LMI run time vs LSH threshold (wide dbp)\n"
        + "\n".join(rows),
    )
