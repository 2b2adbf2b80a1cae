#!/usr/bin/env python3
"""The paper's worked example (Figures 1-3), executed step by step.

Builds the four "Abram" profiles of Figure 1a, shows the Token Blocking
blocks (1b), the blocking-graph weights (1c), the effect of blocking-key
disambiguation (Figure 2), and how entropy weighting plus BLAST pruning
removes the superfluous comparisons while keeping both matches (Figure 3).

Run:  python examples/paper_walkthrough.py
"""

from repro.blocking import LooselySchemaAwareBlocking, TokenBlocking
from repro.blocking.schema_aware import make_key_entropy
from repro.data import EntityCollection, EntityProfile, ERDataset, GroundTruth
from repro.graph import ArrayBlockingGraph, MetaBlocker, WeightingScheme
from repro.schema.entropy import extract_loose_schema_entropies
from repro.schema.partition import AttributePartitioning

NAMES = {0: "p1", 1: "p2", 2: "p3", 3: "p4"}


def figure1_dataset() -> ERDataset:
    """Figure 1a: four profiles from four different data sources."""
    p1 = EntityProfile.from_dict("p1", {
        "Name": "John Abram Jr", "profession": "car seller",
        "year": "1985", "Addr.": "Main street"})
    p2 = EntityProfile.from_dict("p2", {
        "FirstName": "Ellen", "SecondName": "Smith", "year": "85",
        "occupation": "retail", "mail": "Abram st. 30 NY"})
    p3 = EntityProfile.from_dict("p3", {
        "name1": "Jon Jr", "name2": "Abram", "birth year": "85",
        "job": "car retail", "Loc": "Main st."})
    p4 = EntityProfile.from_dict("p4", {
        "full name": "Ellen Smith", "b. date": "May 10 1985",
        "work info": "retailer", "loc": "Abram street NY"})
    return ERDataset(
        EntityCollection([p1, p2, p3, p4], "web"),
        None,
        GroundTruth([("p1", "p3"), ("p2", "p4")], clean_clean=False),
        name="figure1",
    )


def show_weights(title: str, graph: ArrayBlockingGraph, weights) -> None:
    """Print one line per edge; edges and weights are aligned arrays."""
    print(f"\n{title}")
    for i, j, w in zip(graph.src.tolist(), graph.dst.tolist(), weights.tolist()):
        print(f"  {NAMES[i]}-{NAMES[j]}: {w:.2f}")


def main() -> None:
    dataset = figure1_dataset()

    # --- Figure 1b: Token Blocking ---------------------------------------
    blocks = TokenBlocking().build(dataset)
    print("Figure 1b - Token Blocking blocks:")
    for block in blocks:
        members = ", ".join(NAMES[i] for i in sorted(block.profiles))
        print(f"  {block.key:>7}: {{{members}}}")

    # --- Figure 1c: the blocking graph (co-occurrence weights) -----------
    graph = ArrayBlockingGraph(blocks)
    show_weights("Figure 1c - blocking graph (CBS weights):",
                 graph, graph.weights(WeightingScheme.CBS))

    # --- Figure 2: blocking-key disambiguation ---------------------------
    # The idealized loose schema info of the paper: person-name attributes
    # in one cluster, everything else "not similar enough" in the glue.
    partitioning = AttributePartitioning(
        clusters=[{(0, "Name"), (0, "FirstName"), (0, "SecondName"),
                   (0, "name1"), (0, "name2"), (0, "full name")}],
        glue={(0, "profession"), (0, "year"), (0, "occupation"),
              (0, "birth year"), (0, "job"), (0, "work info"),
              (0, "b. date"), (0, "Addr."), (0, "mail"), (0, "Loc"),
              (0, "loc")},
    )
    aware_blocks = LooselySchemaAwareBlocking(partitioning).build(dataset)
    print("\nFigure 2a - disambiguated 'abram' blocks:")
    for block in aware_blocks:
        if block.key.startswith("abram"):
            members = ", ".join(NAMES[i] for i in sorted(block.profiles))
            print(f"  {block.key}: {{{members}}}")
    aware_graph = ArrayBlockingGraph(aware_blocks)
    show_weights("Figure 2b - graph after disambiguation (CBS):",
                 aware_graph, aware_graph.weights(WeightingScheme.CBS))

    # --- Figure 3: entropy-weighted meta-blocking ------------------------
    partitioning = extract_loose_schema_entropies(partitioning, dataset.corpus)
    print("\nFigure 3a - aggregate entropies:")
    for cid in partitioning.cluster_ids:
        label = "glue (other attr.)" if cid == 0 else "cluster 1 (names)"
        print(f"  {label}: {partitioning.entropy_of(cid):.2f}")

    key_entropy = make_key_entropy(partitioning)
    entropy_graph = ArrayBlockingGraph(aware_blocks, key_entropy=key_entropy)
    show_weights("Figure 3b - chi-squared x entropy weights:",
                 entropy_graph, entropy_graph.weights(WeightingScheme.CHI_H))
    retained = MetaBlocker(key_entropy=key_entropy).retained_edges(aware_blocks)
    print("\nFigure 3c - retained comparisons after BLAST pruning:")
    for i, j in retained:
        truth = "match" if (i, j) in dataset.truth_pairs else "SUPERFLUOUS"
        print(f"  {NAMES[i]}-{NAMES[j]}  ({truth})")
    print(f"\n{len(retained)} comparisons instead of "
          f"{dataset.brute_force_comparisons()} brute-force ones.")


if __name__ == "__main__":
    main()
