"""The three batch workloads: one cold pipeline run per round.

A cold run drops the dataset's cached corpus, interns it again
(``dataset.corpus``) and runs the configured pipeline on it
(``pipeline.run``): what a caller pays for one ER task from loaded
profiles to retained pairs.
"""

from __future__ import annotations

import statistics
import time

from harness import CpuClock, Round, digest
from repro import (
    BlastConfig,
    PipelineContext,
    build_pipeline,
    evaluate_blocks,
    load_clean_clean,
)
from repro.datasets.benchmarks import load_dbp_wide

#: ar1 has 1,230 profiles at scale 1.0.
_AR1_PROFILES = 1230
#: Size of the ar1 task all three backends must agree on in set-up.
_ORACLE_PROFILES = 2000
#: Times each graph step is re-executed; the median is reported.
_REEXECUTIONS = 3


def ar1(profiles: int, seed: int):
    return load_clean_clean("ar1", scale=profiles / _AR1_PROFILES, seed=seed)


def pairs_digest(blocks) -> str:
    return digest(blocks.iter_distinct_pairs())


class BatchWorkload:
    def __init__(self, name: str, make_dataset, config: dict, warmups: int):
        self.name = name
        self._make_dataset = make_dataset
        self._config = config
        self._warmups = warmups
        self.failures: list[str] = []
        self.reference_digest: str | None = None

    # -- one-off set-up -------------------------------------------------------

    def prepare(self, env) -> None:
        self.dataset = self._make_dataset(env.seed, env.quick)
        self.config = BlastConfig(**self._config)
        self._check_backends_agree(env.seed, env.quick)
        # Warm-ups fault in the heap the timed runs will reuse (the first
        # full-size run pays ~6 ms per fresh MB on this class of VM) and
        # are discarded.
        for _ in range(self._warmups):
            self.dataset.__dict__.pop("corpus", None)
            result = build_pipeline(self.config).run(self.dataset)
        if self.config.backend != "vectorized":
            self.reference_digest = self._vectorized_digest(result)

    def _check_backends_agree(self, seed: int, quick: bool) -> None:
        small = ar1(_ORACLE_PROFILES // (8 if quick else 1), seed)
        digests = {
            backend: pairs_digest(
                build_pipeline(BlastConfig(backend=backend, **extra))
                .run(small)
                .blocks
            )
            for backend, extra in (
                ("python", {}),
                ("vectorized", {}),
                ("parallel", {"workers": 2}),
            )
        }
        if len(set(digests.values())) != 1:
            self.failures.append(f"backends disagree in set-up: {digests}")

    def _vectorized_digest(self, result) -> str:
        """Meta-block the run's own input again on the one-shot path: the
        sharded result must be the same pairs."""
        context = PipelineContext(
            self.dataset,
            partitioning=result.partitioning,
            blocks=result.initial_blocks,
        )
        build_pipeline(BlastConfig()).stages[-1].apply(context)
        return pairs_digest(context.blocks)

    # -- rounds ---------------------------------------------------------------

    def start(self):
        return build_pipeline(self.config)

    def stop(self, pipeline) -> None:
        pass

    def measure(self, pipeline, recorder) -> Round:
        dataset = self.dataset
        dataset.__dict__.pop("corpus", None)
        layers: dict[str, float] = {}
        with CpuClock() as clock:
            t0 = time.perf_counter()
            if recorder is None:
                dataset.corpus  # noqa: B018 - builds and caches the corpus
                t1 = time.perf_counter()
                result = pipeline.run(dataset)
                blocks = result.blocks
            else:
                with recorder.span("core.run") as run_span:
                    with recorder.span("data.corpus") as corpus_span:
                        dataset.corpus  # noqa: B018
                    t1 = time.perf_counter()
                    context = PipelineContext(dataset)
                    stage_spans = [
                        _traced_stage(recorder, stage, context)
                        for stage in pipeline.stages
                    ]
                blocks = context.blocks
                layers = _stage_layers(
                    recorder, run_span, corpus_span, stage_spans, context
                )
            t2 = time.perf_counter()
        quality = evaluate_blocks(blocks, dataset)
        if recorder is not None:
            layers["graph.retained"] = len(blocks)
            total_cpu = clock.user + clock.sys
            layers["graph.sys_share"] = clock.sys / total_cpu if total_cpu else 0.0
            layers["data.occurrences"] = dataset.corpus.num_occurrences
            layers["data.vocabulary"] = dataset.corpus.vocabulary_size
        return Round(
            wall_s=clock.wall,
            user_s=clock.user,
            sys_s=clock.sys,
            items=dataset.num_profiles,
            query_ms=[(t2 - t1) * 1e3],
            write_ms=[(t1 - t0) * 1e3],
            digest=pairs_digest(blocks),
            pair_completeness=quality.pair_completeness,
            pair_quality=quality.pair_quality,
            attempted=1,
            layers=layers,
        )

    # -- layer probes (traced pass only) --------------------------------------

    def probes(self, rounds, traced: list[Round]) -> dict[str, float | None]:
        """Re-execute the meta-blocking steps on the stage's own input."""
        context = PipelineContext(self.dataset)
        for stage in build_pipeline(self.config).stages[:-1]:
            stage.apply(context)
        metablock_s = statistics.median(
            r.layers["graph.metablock_s"] for r in traced
        )
        values = isolated(
            _graph_probe,
            _GRAPH_METRICS,
            context.blocks,
            context.partitioning,
            self.config,
            metablock_s,
        )
        if self.config.backend == "parallel":
            # The one-shot steps do not add up to the sharded stage.
            values["graph.unattributed_s"] = None
            values.update(
                isolated(
                    _parallel_probe,
                    _PARALLEL_METRICS,
                    context.blocks,
                    context.partitioning,
                    values.get("graph.prune_s") or 0.0,
                    metablock_s,
                )
            )
        return values


def _traced_stage(recorder, stage, context) -> int:
    with recorder.span(stage.name) as span:
        stage.apply(context)
    return span


#: Stage name -> the per-layer metric its span feeds.
_STAGE_METRICS = {
    "schema-extraction": "schema.extract_s",
    "schema-aware-blocking": "blocking.build_s",
    "block-purging": "blocking.purge_s",
    "block-filtering": "blocking.filter_s",
    "meta-blocking": "graph.metablock_s",
}


def _stage_layers(
    recorder, run_span, corpus_span, stage_spans, context
) -> dict[str, float]:
    layers = {"data.corpus_s": recorder.duration(corpus_span)}
    for span in stage_spans:
        name = recorder.spans[span][0]
        layers[_STAGE_METRICS[name]] = recorder.duration(span)
    # Glue is whatever of the run no corpus or stage span covers.
    layers["core.glue_s"] = recorder.self_time(run_span)
    filtered = context.artifacts["initial_blocks"]
    layers["blocking.blocks_out"] = len(filtered)
    layers["blocking.comparisons_out"] = filtered.aggregate_cardinality
    partitioning = context.partitioning
    layers["schema.clusters"] = partitioning.num_clusters
    layers["schema.attributes"] = sum(
        len(partitioning.members(c)) for c in partitioning.cluster_ids
    )
    return layers


def isolated(probe, names, *args) -> dict[str, float | None]:
    """Run a layer probe; if a later refactor moved what it reaches for,
    report its metrics as missing instead of failing the benchmark."""
    try:
        return probe(*args)
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"warning: probe {probe.__name__} unavailable: {exc!r}")
        return dict.fromkeys(names)


_GRAPH_METRICS = (
    "graph.index_s", "graph.edges_s", "graph.weights_s", "graph.prune_s",
    "graph.rebuild_s", "graph.unattributed_s", "graph.comparisons",
    "graph.edges", "graph.useful_ratio", "graph.edge_mb",
)


def _graph_probe(blocks, partitioning, config, metablock_s) -> dict:
    from repro.blocking.schema_aware import make_key_entropy
    from repro.graph.metablocking import blocks_from_edges
    from repro.graph.pruning import BlastPruning
    from repro.graph.vectorized import ArrayBlockingGraph, prune_mask

    key_entropy = make_key_entropy(partitioning)
    pruning = BlastPruning(c=config.pruning_c, d=config.pruning_d)
    timings: dict[str, list[float]] = {
        name: [] for name in ("index", "edges", "weights", "prune", "rebuild")
    }
    for _ in range(_REEXECUTIONS):
        blocks.__dict__.pop("entity_index", None)
        marks = [time.perf_counter()]
        index = blocks.entity_index
        marks.append(time.perf_counter())
        graph = ArrayBlockingGraph(blocks, key_entropy=key_entropy)
        marks.append(time.perf_counter())
        weights = graph.weights(config.weighting)
        marks.append(time.perf_counter())
        mask = prune_mask(pruning, graph, weights)
        marks.append(time.perf_counter())
        edges = list(zip(graph.src[mask].tolist(), graph.dst[mask].tolist()))
        blocks_from_edges(edges, blocks.is_clean_clean, presorted=True)
        marks.append(time.perf_counter())
        for name, lo, hi in zip(timings, marks, marks[1:]):
            timings[name].append(hi - lo)
        comparisons = index.total_comparisons
        num_edges = graph.num_edges
        edge_bytes = sum(
            a.nbytes
            for a in (graph.src, graph.dst, graph.shared, graph.entropy_mass,
                      weights)
        )
        del graph, weights, mask, edges
    values = {
        f"graph.{name}_s": statistics.median(samples)
        for name, samples in timings.items()
    }
    values["graph.unattributed_s"] = metablock_s - sum(values.values())
    values["graph.comparisons"] = comparisons
    values["graph.edges"] = num_edges
    values["graph.useful_ratio"] = num_edges / comparisons
    # Computed from array shapes, not measured: the bytes of the edge,
    # shared-count, entropy-mass and weight arrays alive at the prune.
    values["graph.edge_mb"] = edge_bytes / 2**20
    return values


_PARALLEL_METRICS = (
    "graph.parallel.plan_s", "graph.parallel.shard_sum_s",
    "graph.parallel.shard_max_s", "graph.parallel.merge_s",
    "graph.parallel.skew", "graph.parallel.overhead_s",
)


def _parallel_probe(blocks, partitioning, prune_s, metablock_s) -> dict:
    """Plan, run and merge the two shards in this process: what the
    backend's workers do, without fork, pickling or dispatch."""
    from repro.blocking.schema_aware import make_key_entropy
    from repro.graph.parallel import merge_shards
    from repro.graph.sharding import (
        pair_counts_by_entity,
        plan_shards,
        shard_edge_arrays,
    )

    index = blocks.entity_index
    entropies = index.block_entropies(make_key_entropy(partitioning))
    t0 = time.perf_counter()
    plan = plan_shards(index, num_shards=2)
    plan_s = time.perf_counter() - t0
    shards, shard_s = [], []
    for lo, hi in plan:
        t0 = time.perf_counter()
        shards.append(shard_edge_arrays(index, lo, hi, block_entropies=entropies))
        shard_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    merge_shards(shards)
    merge_s = time.perf_counter() - t0
    counts = pair_counts_by_entity(index)
    owned = [int(counts[lo:hi].sum()) for lo, hi in plan]
    return {
        "graph.parallel.plan_s": plan_s,
        "graph.parallel.shard_sum_s": sum(shard_s),
        "graph.parallel.shard_max_s": max(shard_s),
        "graph.parallel.merge_s": merge_s,
        "graph.parallel.skew": max(owned) / (sum(owned) / len(owned)),
        # What is left of the stage once the slowest shard, the merge and
        # the prune are paid: fork, pickling and dispatch.
        "graph.parallel.overhead_s": metablock_s
        - (plan_s + max(shard_s) + merge_s + prune_s),
    }


def _clean_dataset(seed: int, quick: bool):
    return ar1(700 if quick else 14_000, seed)


def _wide_dataset(seed: int, quick: bool):
    if quick:
        return load_dbp_wide(num_rare=100, scale=0.1, seed=seed)
    return load_dbp_wide(num_rare=800, scale=0.25, seed=seed)


WORKLOADS = {
    "batch_clean": lambda: BatchWorkload("batch_clean", _clean_dataset, {}, 2),
    "batch_wide": lambda: BatchWorkload("batch_wide", _wide_dataset, {}, 1),
    "batch_parallel": lambda: BatchWorkload(
        "batch_parallel", _clean_dataset, {"backend": "parallel", "workers": 2}, 1
    ),
}
