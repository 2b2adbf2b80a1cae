"""Table 6: LMI run time as the LSH threshold varies.

The paper runs LMI on dbp's 30k x 50k attribute space: 12.5h exhaustively,
0.7-1.9h with LSH depending on the threshold, because its exhaustive LMI
scores the whole cross product.  This one scores only the attribute pairs
sharing a token, taken from an inverted attribute x token index, so at
laptop scale the exhaustive row is the *floor*: on the wide-schema dbp
variant the index beats LSH at every threshold (1,642 attributes:
exhaustive 0.05 s, LSH 0.23 s at threshold 0.32 and 0.16 s at 0.55, all of
it MinHash signatures and Python banding).  Higher thresholds still admit
fewer candidates and run faster; what LSH buys here is the paper-fidelity
candidate set (Figure 10), not time.  Every row prints the pairs it really
scored (the attribute graph's edges) of the cross product.
"""

from harness import write_result

from repro.datasets.benchmarks import load_dbp_wide
from repro.lsh import lsh_candidate_pairs
from repro.schema.attribute_graph import AttributeGraph
from repro.schema.attribute_profile import build_attribute_profiles
from repro.schema.lmi import LooseAttributeMatchInduction
from repro.utils.timer import Timer

THRESHOLDS = (0.10, 0.22, 0.32, 0.41, 0.55, 0.64)


def test_table6_lmi_time_vs_threshold(benchmark):
    def run():
        dataset = load_dbp_wide(num_rare=550, scale=1.0)
        profiles1 = build_attribute_profiles(dataset.collection1, 0)
        profiles2 = build_attribute_profiles(dataset.collection2, 1)
        lmi = LooseAttributeMatchInduction()
        # The pairs induce() scores, counted outside the timed regions.
        graph = AttributeGraph.from_token_sets(
            {p.ref: p.tokens for p in (*profiles1, *profiles2)}, clean_clean=True
        )
        total_pairs = len(profiles1) * len(profiles2)

        rows = []
        with Timer() as exhaustive:
            exact = lmi.induce(profiles1, profiles2)
        rows.append(
            f"{'exhaustive':>12}: {exhaustive.elapsed:6.2f}s "
            f"({graph.src.size:,} of {total_pairs:,} pairs scored, "
            f"{exact.num_clusters} clusters)"
        )
        for threshold in THRESHOLDS:
            with Timer() as timer:
                candidates = lsh_candidate_pairs(
                    profiles1, profiles2, threshold=threshold,
                    num_hashes=150, seed=42,
                )
                part = lmi.induce(profiles1, profiles2, candidates)
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
