#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                       # everything, seed 42
    python3 benchmarks/e2e/run.py --workload batch_wide # one workload
    python3 benchmarks/e2e/run.py --seed 7              # another seed
    python3 benchmarks/e2e/run.py --sets 3              # repeatability gate
    python3 benchmarks/e2e/run.py --quick               # 1/20 size smoke run

Without ``--trace`` this process only orchestrates: every workload runs in
a fresh subprocess, once untraced (end-to-end metrics) and once traced
(per-layer metrics).  With ``--trace 0|1`` and ``--workload`` it *is* that
subprocess: it measures for ``--seconds`` and prints one JSON object as
its last line.  Metric names, units and bounds come from the root
``BENCHMARK.json``; README.md says what each one means.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402
from spans import Recorder  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDENS = HERE / "goldens.json"
BASELINE = HERE / "baseline.json"


@dataclass
class Env:
    """What a workload's one-off set-up gets to see."""

    seed: int
    quick: bool
    #: Scratch directory for this invocation, inside the checkout.
    out_dir: Path
    #: The program under test, for the server subprocess's PYTHONPATH.
    src_dir: Path


def read_json(path: Path, default=None):
    if default is not None and not path.exists():
        return default
    return json.loads(path.read_text(encoding="utf-8"))


# -- worker: one workload, one pass -------------------------------------------


def worker(args, spec: dict) -> int:
    if not (SRC / "repro").is_dir():
        print(f"error: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import batch
    import serve
    import stream

    registry = {**batch.WORKLOADS, **stream.WORKLOADS, **serve.WORKLOADS}
    workload = registry[args.workload]()
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    recorder = Recorder() if args.trace else None
    try:
        workload.prepare(Env(args.seed, args.quick, scratch, SRC))
        one_off = time.perf_counter() - _PROCESS_START
        rounds, traced, setups = harness.run_rounds(
            workload, args.seconds, recorder
        )
        if args.trace:
            values = harness.per_layer(workload, rounds, traced)
            recorder.write(OUT / f"trace-{args.workload}.json")
        else:
            values = harness.end_to_end(workload, rounds, setups, one_off)
            print(harness.describe_rounds(rounds, setups, one_off))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    done = rounds + traced
    failures = workload.failures + digest_failures(workload, done, args)
    for failure in failures:
        print(f"FAILED {args.workload}: {failure}")
    failed = sum(r.failed for r in done) + len(failures)
    if args.record and not failed and not args.trace:
        goldens = read_json(GOLDENS, {})
        goldens.setdefault(str(args.seed), {})[args.workload] = done[0].digest
        GOLDENS.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")

    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = values.get(metric["name"])
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{metric['name']:34s} {shown:>14s} {metric['unit']}")
        # The result line carries numbers only: a per-layer metric this
        # workload's path never enters, or whose probe broke, reads 0.
        metrics[metric["name"]] = {
            "value": 0 if value is None else value,
            "unit": metric["unit"],
        }
    print(json.dumps({
        "correct": failed == 0,
        # The digest checks count as one more operation attempted.
        "attempted": sum(r.attempted for r in done) + 1,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def digest_failures(workload, rounds, args) -> list[str]:
    """Every round must produce the first round's output, the workload's
    own cross-check must agree, and so must the golden if there is one."""
    failures = []
    first = rounds[0].digest
    for number, round_ in enumerate(rounds[1:], 2):
        if round_.digest != first:
            failures.append(f"round {number} digest {round_.digest} != {first}")
    if workload.reference_digest not in (None, first):
        failures.append(
            f"digest {first} != cross-check {workload.reference_digest}"
        )
    if not args.quick and not args.record:
        golden = read_json(GOLDENS, {}).get(str(args.seed), {}).get(args.workload)
        if golden not in (None, first):
            failures.append(f"digest {first} != golden {golden}")
    return failures


# -- orchestrator: every workload, both passes, fresh subprocesses ------------


def run_worker(workload: str, trace: int, args) -> tuple[dict | None, str]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    command += ["--quick"] * args.quick + ["--record"] * args.record
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except (IndexError, ValueError):
        return None, done.stdout + done.stderr


def orchestrate(args, spec: dict) -> int:
    selected = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]
    ]
    sets: list[dict] = []
    broken: list[str] = []
    for number in range(1, args.sets + 1):
        results: dict = {}
        for workload in selected:
            for trace in (0, 1):
                result, text = run_worker(workload, trace, args)
                print(f"== set {number}: {workload} --trace {trace}\n{text}")
                if result is None or not result["correct"]:
                    broken.append(f"{workload} (set {number}, trace {trace})")
                if result is not None:
                    results.setdefault(workload, {})[trace] = result["metrics"]
        sets.append(results)
    if args.record and not broken:
        BASELINE.write_text(json.dumps(baseline(args, sets), indent=2) + "\n")
    if args.sets > 1:
        broken += spread_failures(sets, selected, spec["end_to_end"])
    for item in broken:
        print(f"FAILED: {item}")
    return 1 if broken else 0


def baseline(args, sets: list[dict]) -> dict:
    """The numbers to commit: per metric, the median over the sets."""
    def medians(workload: str, trace: int) -> dict:
        return {
            name: {
                "value": statistics.median(
                    s[workload][trace][name]["value"] for s in sets
                ),
                "unit": metric["unit"],
            }
            for name, metric in sets[0][workload][trace].items()
        }

    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "sets": len(sets),
        "claim": None,
        "workloads": {
            workload: {
                "end_to_end": medians(workload, 0),
                "per_layer": medians(workload, 1),
            }
            for workload in sets[0]
        },
    }


def spread_failures(sets, selected, end_to_end) -> list[str]:
    """Per end-to-end metric and workload, the sets' values and their
    relative spread, (max - min) / median; over the bound is a failure."""
    over = []
    for workload in selected:
        for metric in end_to_end:
            name, bound = metric["name"], metric["bound"]
            values = [
                s[workload][0][name]["value"]
                for s in sets
                if 0 in s.get(workload, {})
            ]
            if len(values) < 2:
                continue
            spread = (max(values) - min(values)) / statistics.median(values)
            print(
                f"spread {workload:15s} {name:18s} "
                f"{' '.join(f'{v:.6g}' for v in values)}  {spread:.4f} "
                f"(bound {bound}) {'ok' if spread <= bound else 'over'}"
            )
            # Set-up is one first-touch-dominated sample a pass: its spread
            # is shown, its drift between sets of passes is what is gated.
            if spread > bound and name != "setup_s":
                over.append(f"{workload} {name} spread {spread:.3f} > {bound}")
    return over


def main(argv: list[str] | None = None) -> int:
    spec = read_json(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds one pass measures (default: "
                             "BENCHMARK.json run_seconds; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="be the measuring subprocess: 0 untraced, 1 traced")
    parser.add_argument("--sets", type=int, default=1,
                        help="run everything N times and gate the spread")
    parser.add_argument("--quick", action="store_true",
                        help="every workload at about 1/20 size")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in goldens.json and "
                             "its numbers in baseline.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.quick else spec["run_seconds"]
    if args.trace is None:
        return orchestrate(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    return worker(args, spec)


if __name__ == "__main__":
    sys.exit(main())
