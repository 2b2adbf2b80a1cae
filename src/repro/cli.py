"""Command-line interface.

Seven subcommands::

    python -m repro run      --left a.jsonl --right b.jsonl --output pairs.csv
    python -m repro evaluate --left a.jsonl --right b.jsonl \
                             --ground-truth gt.csv
    python -m repro generate --dataset ar1 --outdir data/
    python -m repro stream   --input stream.jsonl --output matches.jsonl
    python -m repro serve    --data-dir tenants/ --port 7711
    python -m repro lint     src/
    python -m repro bench    benchmarks/configs/scaling.toml

``run`` executes the BLAST pipeline and writes the candidate pairs;
``evaluate`` additionally scores them against a ground truth; ``generate``
materializes one of the built-in benchmark datasets as JSONL + CSV so the
other two commands (and external tools) can consume it; ``stream`` replays
a JSON-lines profile stream (``.gz`` transparently) through the
incremental subsystem and emits each arrival's retained candidates as they
are computed; ``serve`` runs the multi-tenant JSON-lines-over-TCP server
of :mod:`repro.serving` (one journaled, crash-recovering streaming
session per tenant); ``lint`` runs the repro-lint static contract checks
of :mod:`repro.analysis` (also available dependency-free as ``python -m
repro.analysis``); ``bench`` executes a declarative experiment config
(datasets x pipelines x backends grid) through
:mod:`repro.experiments` and diffs the results against committed
benchmark history with per-metric tolerances.

``run``, ``evaluate`` and ``stream`` assemble their components from the
registries: ``--blocker``, ``--weighting``, ``--pruning``, ``--backend``
and ``--consistency`` accept any registered name (components added via
``repro.register_blocker`` and friends appear automatically, in ``--help``
too).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import json
import time

from repro.analysis import cli as _lint_cli
from repro.experiments import engine as _bench_cli
from repro.core import BlastConfig, PipelineError, build_pipeline
from repro.core.registry import (
    BACKENDS,
    BLOCKERS,
    PRUNERS,
    STREAM_VIEWS,
    WEIGHTINGS,
)
from repro.data.collection import EntityCollection
from repro.data.dataset import ERDataset
from repro.data.io import (
    load_collection,
    load_ground_truth,
    save_collection,
    save_ground_truth,
)
from repro.data.ground_truth import GroundTruth
from repro.datasets import load_clean_clean, load_dirty
from repro.datasets.benchmarks import CLEAN_CLEAN_DATASETS
from repro.datasets.dirty import DIRTY_DATASETS
from repro.metrics import evaluate_blocks

#: Every flag that sets a BlastConfig field defaults to that field's value.
_DEFAULTS = BlastConfig()


def _registry_epilog() -> str:
    """The dynamic component listing appended to ``--help``."""
    return (
        "registered components (extensible via repro.register_blocker/"
        "register_weighting/register_pruning/register_backend/"
        "register_stream_view):\n"
        f"  blockers:     {', '.join(BLOCKERS.names())}\n"
        f"  weightings:   {', '.join(WEIGHTINGS.names())}\n"
        f"  prunings:     {', '.join(PRUNERS.names())}\n"
        f"  backends:     {', '.join(BACKENDS.names())}\n"
        f"  stream views: {', '.join(STREAM_VIEWS.names())}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="BLAST: loosely schema-aware meta-blocking for entity resolution",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run BLAST and write candidate pairs",
                         epilog=_registry_epilog(),
                         formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_input_arguments(run)
    _add_config_arguments(run)
    run.add_argument("--output", type=Path, required=True,
                     help="CSV file for the candidate pairs")

    ev = sub.add_parser("evaluate", help="run BLAST and score against a ground truth",
                        epilog=_registry_epilog(),
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_input_arguments(ev)
    _add_config_arguments(ev)
    ev.add_argument("--ground-truth", type=Path, required=True,
                    help="two-column CSV of matching profile ids")
    ev.add_argument("--output", type=Path, default=None,
                    help="optionally also write the candidate pairs")

    gen = sub.add_parser("generate", help="materialize a built-in benchmark dataset")
    gen.add_argument("--dataset", required=True,
                     choices=sorted(CLEAN_CLEAN_DATASETS) + sorted(DIRTY_DATASETS))
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--outdir", type=Path, required=True)

    stream = sub.add_parser(
        "stream",
        help="replay a profile stream, emitting candidates as they arrive",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    stream.add_argument("--input", type=Path, required=True,
                        help="JSON-lines profile stream (.gz transparently); "
                             "records may carry 'source' (0/1) and 'op' "
                             "('upsert' default, or 'delete')")
    stream.add_argument("--output", type=Path, default=None,
                        help="JSON-lines file for per-arrival candidates "
                             "(.gz transparently); omit to replay without "
                             "emitting")
    stream.add_argument("--clean-clean", action="store_true",
                        help="two-source stream (records carry source 0/1)")
    stream.add_argument("--weighting", choices=WEIGHTINGS.names(),
                        default=_DEFAULTS.weighting.value,
                        help="registered edge weighting (default: "
                             "%(default)s; ejs needs global statistics and "
                             "is rejected at query time)")
    stream.add_argument("--pruning", choices=PRUNERS.names(), default="blast",
                        help="registered node-centric pruning scheme "
                             "(blast, wnp1/wnp2, cnp1/cnp2; default: "
                             "%(default)s)")
    stream.add_argument("--consistency", choices=STREAM_VIEWS.names(),
                        default="fast",
                        help="query view: 'fast' serves from incremental "
                             "statistics, 'exact' reproduces batch "
                             "purging/filtering semantics per index version "
                             "(default: %(default)s for arrival-time "
                             "replay)")
    stream.add_argument("--query-k", type=int, default=None,
                        help="cap each arrival's emitted candidates")
    stream.add_argument("--min-token-length", type=int,
                        default=_DEFAULTS.min_token_length)
    stream.add_argument("--purging-ratio", type=float,
                        default=_DEFAULTS.purging_ratio)
    stream.add_argument("--filtering-ratio", type=float,
                        default=_DEFAULTS.filtering_ratio)
    stream.add_argument("--pruning-c", type=float, default=_DEFAULTS.pruning_c)
    stream.add_argument("--pruning-d", type=float, default=_DEFAULTS.pruning_d)
    stream.add_argument("--snapshot", type=Path, default=None,
                        help="session snapshot path: restored before the "
                             "replay when the file exists, written after it "
                             "either way")
    stream.add_argument("--journal", type=Path, default=None,
                        help="append-only write-ahead journal: every "
                             "upsert/delete is logged before it is applied; "
                             "with --snapshot, a crashed replay recovers to "
                             "the exact pre-crash state (snapshot + journal "
                             "tail)")
    stream.add_argument("--skip-malformed", action="store_true",
                        help="quarantine malformed stream lines instead of "
                             "aborting; a per-record report goes to stderr")
    stream.add_argument("--no-query", action="store_true",
                        help="only build the index (bulk load / snapshot "
                             "warm-up); no candidates are computed")

    serve = sub.add_parser(
        "serve",
        help="serve many tenants over TCP (JSON lines; see repro.serving)",
        epilog=_registry_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    serve.add_argument("--data-dir", type=Path, required=True,
                       help="root of the per-tenant persistence layout "
                            "(<data-dir>/<tenant>/{snapshot.json.gz,"
                            "wal.jsonl}); tenants found here are "
                            "crash-recovered on first touch")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7711,
                       help="TCP port (default: %(default)s; 0 picks a "
                            "free port and prints it)")
    serve.add_argument("--clean-clean", action="store_true",
                       help="fresh tenants index two-source streams "
                            "(recovered tenants keep their snapshot's kind)")
    serve.add_argument("--weighting", choices=WEIGHTINGS.names(),
                       default=_DEFAULTS.weighting.value,
                       help="edge weighting of fresh tenants "
                            "(default: %(default)s)")
    serve.add_argument("--pruning", choices=PRUNERS.names(), default="blast",
                       help="pruning scheme of fresh tenants "
                            "(default: %(default)s)")
    serve.add_argument("--consistency", choices=STREAM_VIEWS.names(),
                       default="fast",
                       help="query view of fresh tenants "
                            "(default: %(default)s)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="per-tenant write-queue bound; a full queue "
                            "answers 'overloaded' (default: "
                            "BlastConfig.serve_max_queue)")
    serve.add_argument("--batch-size", type=int, default=None,
                       help="most writes one actor batch applies "
                            "(default: BlastConfig.serve_batch_size)")
    serve.add_argument("--resident-tenants", type=int, default=None,
                       help="LRU cap on simultaneously open tenants "
                            "(default: BlastConfig.serve_resident_tenants)")
    serve.add_argument("--snapshot-interval", type=int, default=None,
                       help="snapshot a tenant every N applied writes "
                            "(default: only on eviction/shutdown)")
    serve.add_argument("--log-interval", type=float, default=30.0,
                       help="seconds between operational log lines "
                            "(default: %(default)s)")

    lint = sub.add_parser(
        "lint",
        help="run repro-lint static contract checks "
             "(determinism/dtype/registry invariants; see DESIGN.md)")
    _lint_cli.configure_parser(lint)

    bench = sub.add_parser(
        "bench",
        help="run a declarative experiment config and compare against "
             "committed benchmark history (see DESIGN.md)")
    _bench_cli.configure_parser(bench)
    return parser


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--left", type=Path, required=True,
                        help="JSONL entity collection (see repro.data.io)")
    parser.add_argument("--right", type=Path, default=None,
                        help="second collection for clean-clean ER; omit for dirty ER")
    parser.add_argument("--skip-malformed", action="store_true",
                        help="quarantine malformed lines and duplicate ids "
                             "instead of aborting; a per-record report goes "
                             "to stderr")


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--blocker", choices=BLOCKERS.names(),
                        default="schema-aware",
                        help="registered blocking technique (default: %(default)s)")
    parser.add_argument("--weighting", choices=WEIGHTINGS.names(),
                        default=_DEFAULTS.weighting.value,
                        help="registered edge weighting (default: %(default)s)")
    parser.add_argument("--pruning", choices=PRUNERS.names(),
                        default="blast",
                        help="registered pruning scheme (default: %(default)s)")
    parser.add_argument("--backend", choices=BACKENDS.names(),
                        default=_DEFAULTS.backend,
                        help="meta-blocking execution backend: the numpy "
                             "array path, the sharded multi-process "
                             "'parallel' engine, or the pure-python "
                             "reference (default: %(default)s)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes of the parallel backend "
                             "(default: the machine's cpu count; 1 runs "
                             "the shards sequentially in-process)")
    parser.add_argument("--shard-size", type=int, default=None,
                        help="cap on comparisons per shard of the parallel "
                             "backend (strict, except a single entity "
                             "owning more); bounds peak per-shard memory "
                             "(default: DEFAULT_SHARD_PAIRS of "
                             "repro.graph.sharding, raised only past "
                             "MAX_DEFAULT_SHARDS shards; at least one "
                             "shard per worker)")
    parser.add_argument("--task-timeout", type=float, default=None,
                        help="seconds one shard task of the parallel "
                             "backend may take before it is declared lost "
                             "and retried (default: wait forever)")
    parser.add_argument("--max-retries", type=int, default=None,
                        help="fresh-pool retries of the parallel backend "
                             "after shard failures/timeouts; shards still "
                             "unfinished afterwards run serially in-process "
                             "(default: 2)")
    parser.add_argument("--induction", choices=("lmi", "ac"),
                        default=_DEFAULTS.induction)
    parser.add_argument("--alpha", type=float, default=_DEFAULTS.alpha)
    parser.add_argument("--use-lsh", action="store_true")
    parser.add_argument("--lsh-threshold", type=float,
                        default=_DEFAULTS.lsh_threshold)
    parser.add_argument("--min-token-length", type=int,
                        default=_DEFAULTS.min_token_length,
                        help="shortest token used as a blocking key")
    parser.add_argument("--purging-ratio", type=float,
                        default=_DEFAULTS.purging_ratio,
                        help="Block Purging max profile fraction per block")
    parser.add_argument("--filtering-ratio", type=float,
                        default=_DEFAULTS.filtering_ratio,
                        help="Block Filtering retained fraction per profile")
    parser.add_argument("--no-entropy", action="store_true",
                        help="disable the aggregate-entropy weighting factor")
    parser.add_argument("--pruning-c", type=float, default=_DEFAULTS.pruning_c)
    parser.add_argument("--pruning-d", type=float, default=_DEFAULTS.pruning_d)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--stage-report", action="store_true",
                        help="print the per-stage instrumentation table")


def _config_from(args: argparse.Namespace) -> BlastConfig:
    return BlastConfig(
        induction=args.induction,
        alpha=args.alpha,
        use_lsh=args.use_lsh,
        lsh_threshold=args.lsh_threshold,
        min_token_length=args.min_token_length,
        purging_ratio=args.purging_ratio,
        filtering_ratio=args.filtering_ratio,
        use_entropy=not args.no_entropy,
        pruning_c=args.pruning_c,
        pruning_d=args.pruning_d,
        backend=args.backend,
        workers=args.workers,
        shard_size=args.shard_size,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        seed=args.seed,
    )


def _run_pipeline(args: argparse.Namespace, dataset: ERDataset):
    # The weighting is resolved through the registry (not BlastConfig) so
    # that custom components registered via @register_weighting work too.
    pipeline = build_pipeline(
        _config_from(args),
        blocker=args.blocker,
        weighting=args.weighting,
        pruning=args.pruning,
    )
    result = pipeline.run(dataset)
    if args.stage_report:
        print(result.report())
    return result


def _load_quarantining(path: Path) -> EntityCollection:
    """Load a collection skipping bad records, reporting them on stderr."""
    from repro.data.io import IngestReport

    report = IngestReport()
    collection = load_collection(path, on_error="collect", report=report)
    for issue in report.issues:
        print(f"warning: skipped {issue}", file=sys.stderr)
    if not report.ok:
        print(f"warning: {path}: {report.summary()}", file=sys.stderr)
    return collection


def _dataset_from(args: argparse.Namespace,
                  ground_truth: GroundTruth | None = None) -> ERDataset:
    load = _load_quarantining if args.skip_malformed else load_collection
    left = load(args.left)
    right = load(args.right) if args.right else None
    if ground_truth is None:
        ground_truth = GroundTruth([], clean_clean=right is not None)
    return ERDataset(left, right, ground_truth, name=args.left.stem)


def _write_pairs(result, dataset: ERDataset, output: Path) -> int:
    output.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with output.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id1", "id2"])
        for i, j in result.blocks.iter_distinct_pairs():
            writer.writerow(
                [dataset.profile(i).profile_id, dataset.profile(j).profile_id]
            )
            count += 1
    return count


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = _dataset_from(args)
    result = _run_pipeline(args, dataset)
    count = _write_pairs(result, dataset, args.output)
    print(f"wrote {count} candidate pairs to {args.output} "
          f"(overhead {result.overhead_seconds:.2f}s, "
          f"{dataset.brute_force_comparisons():,} brute-force comparisons avoided)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = load_ground_truth(args.ground_truth,
                              clean_clean=args.right is not None)
    dataset = _dataset_from(args, truth)
    result = _run_pipeline(args, dataset)
    quality = evaluate_blocks(result.blocks, dataset)
    print(f"PC={quality.pair_completeness:.4f} PQ={quality.pair_quality:.6f} "
          f"F1={quality.f1:.4f} comparisons={quality.comparisons} "
          f"overhead={result.overhead_seconds:.2f}s")
    if args.output is not None:
        _write_pairs(result, dataset, args.output)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset in CLEAN_CLEAN_DATASETS:
        dataset = load_clean_clean(args.dataset, scale=args.scale, seed=args.seed)
    else:
        dataset = load_dirty(args.dataset, scale=args.scale, seed=args.seed)
    args.outdir.mkdir(parents=True, exist_ok=True)
    save_collection(dataset.collection1, args.outdir / "left.jsonl")
    files = ["left.jsonl", "ground_truth.csv"]
    if dataset.collection2 is not None:
        save_collection(dataset.collection2, args.outdir / "right.jsonl")
        files.insert(1, "right.jsonl")
    save_ground_truth(dataset.ground_truth, args.outdir / "ground_truth.csv")
    print(f"wrote {', '.join(files)} to {args.outdir} "
          f"({dataset.num_profiles} profiles, {dataset.num_duplicates} matches)")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.data.io import IngestReport, open_text
    from repro.streaming import StreamingSession, iter_stream

    config = BlastConfig(
        min_token_length=args.min_token_length,
        purging_ratio=args.purging_ratio,
        filtering_ratio=args.filtering_ratio,
        weighting=args.weighting,
        pruning_c=args.pruning_c,
        pruning_d=args.pruning_d,
        stream_consistency=args.consistency,
        stream_query_k=args.query_k,
    )
    def fresh_session(journal: Path | None = None) -> StreamingSession:
        return StreamingSession(
            config,
            clean_clean=args.clean_clean,
            pruning=PRUNERS.get(args.pruning)(config),
            journal=journal,
        )

    snapshot_exists = args.snapshot is not None and args.snapshot.exists()
    journal_used = (
        args.journal is not None
        and args.journal.exists()
        and args.journal.stat().st_size > 0
    )
    if args.journal is not None and (snapshot_exists or journal_used):
        # Snapshot + journal tail = the exact pre-crash state (a used
        # journal with no snapshot yet recovers from an empty baseline);
        # the journal stays attached for the replay that follows.
        session = StreamingSession.recover(
            args.snapshot, args.journal, session_factory=fresh_session
        )
        base = (f"{args.snapshot} + {args.journal} (snapshot settings apply)"
                if snapshot_exists
                else f"{args.journal} (no snapshot yet)")
        print(f"recovered {session.index.num_profiles} profiles from {base}")
    elif snapshot_exists:
        session = StreamingSession.restore(args.snapshot)
        print(f"restored {session.index.num_profiles} profiles from "
              f"{args.snapshot} (snapshot settings apply)")
    else:
        session = fresh_session(journal=args.journal)

    ingest_report = IngestReport() if args.skip_malformed else None
    records = iter_stream(
        args.input,
        on_error="collect" if args.skip_malformed else "raise",
        report=ingest_report,
    )
    out_handle = (
        open_text(args.output, "w") if args.output is not None else None
    )
    upserts = deletes = links = 0
    start = time.perf_counter()
    try:
        for event in session.replay(records, query=not args.no_query):
            record = event.record
            if record.op == "delete":
                deletes += 1
                payload = {"op": "delete", "id": record.profile_id,
                           "source": record.source, "applied": event.applied}
            else:
                upserts += 1
                candidates = event.candidates or []
                links += len(candidates)
                payload = {
                    "op": "upsert", "id": record.profile_id,
                    "source": record.source,
                    "candidates": [
                        {"id": c.profile_id, "source": c.source,
                         "weight": c.weight}
                        for c in candidates
                    ],
                }
            if out_handle is not None:
                out_handle.write(json.dumps(payload, ensure_ascii=False) + "\n")
    finally:
        if out_handle is not None:
            out_handle.close()
    elapsed = time.perf_counter() - start

    if ingest_report is not None:
        for issue in ingest_report.issues:
            print(f"warning: skipped {issue}", file=sys.stderr)
        if not ingest_report.ok:
            print(f"warning: {args.input}: {ingest_report.summary()}",
                  file=sys.stderr)
    qps = upserts / elapsed if elapsed > 0 else float("inf")
    print(f"replayed {upserts + deletes} records ({upserts} upserts, "
          f"{deletes} deletes) in {elapsed:.2f}s"
          + ("" if args.no_query else
             f" — {links} candidate links ({qps:,.0f} queries/s)")
          + (f", wrote {args.output}" if args.output is not None else ""))
    if args.snapshot is not None:
        session.snapshot(args.snapshot)
        print(f"snapshot written to {args.snapshot} "
              f"({session.index.num_profiles} profiles, "
              f"{session.index.num_blocks} keys)")
    session.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import logging

    from repro.serving import ReproServer, TenantRegistry
    from repro.streaming import StreamingSession

    overrides = {
        "serve_max_queue": args.max_queue,
        "serve_batch_size": args.batch_size,
        "serve_resident_tenants": args.resident_tenants,
        "serve_snapshot_interval": args.snapshot_interval,
    }
    config = BlastConfig(
        weighting=args.weighting,
        stream_consistency=args.consistency,
        **{knob: value for knob, value in overrides.items()
           if value is not None},
    )

    def fresh_session() -> StreamingSession:
        # No journal here: the registry's recovery path attaches each
        # tenant's own journal when it opens the tenant.
        return StreamingSession(
            config,
            clean_clean=args.clean_clean,
            pruning=PRUNERS.get(args.pruning)(config),
        )

    logging.basicConfig(
        level=logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    registry = TenantRegistry(
        args.data_dir, config,
        clean_clean=args.clean_clean,
        session_factory=fresh_session,
    )
    server = ReproServer(
        registry, host=args.host, port=args.port,
        log_interval=args.log_interval,
    )

    async def _serve() -> None:
        await server.start()
        print(f"serving on {server.host}:{server.port} "
              f"(data dir {args.data_dir}, "
              f"{len(registry.known_tenants())} tenants on disk)",
              flush=True)
        await server.serve_forever()

    asyncio.run(_serve())
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    commands = {"run": _cmd_run, "evaluate": _cmd_evaluate,
                "generate": _cmd_generate, "stream": _cmd_stream,
                "serve": _cmd_serve, "lint": _lint_cli.execute,
                "bench": _bench_cli.execute}
    try:
        return commands[args.command](args)
    except (OSError, ValueError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
