"""Tests for the command-line interface."""

import csv

import pytest

from repro.cli import main
from repro.data.io import load_collection, load_ground_truth


@pytest.fixture
def generated(tmp_path):
    """A small generated benchmark on disk."""
    outdir = tmp_path / "data"
    code = main(["generate", "--dataset", "prd", "--scale", "0.3",
                 "--outdir", str(outdir)])
    assert code == 0
    return outdir


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0
        assert "meta-blocking" in result.stdout

    def test_no_command_shows_usage(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro"],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode != 0
        assert "usage:" in result.stderr


class TestGenerate:
    def test_writes_clean_clean_files(self, generated):
        assert (generated / "left.jsonl").exists()
        assert (generated / "right.jsonl").exists()
        assert (generated / "ground_truth.csv").exists()
        left = load_collection(generated / "left.jsonl")
        assert len(left) > 0

    def test_dirty_dataset_has_single_file(self, tmp_path):
        outdir = tmp_path / "dirty"
        assert main(["generate", "--dataset", "census", "--scale", "0.2",
                     "--outdir", str(outdir)]) == 0
        assert (outdir / "left.jsonl").exists()
        assert not (outdir / "right.jsonl").exists()
        truth = load_ground_truth(outdir / "ground_truth.csv", clean_clean=False)
        assert len(truth) > 0

    def test_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "nope", "--outdir", str(tmp_path)])


class TestRun:
    def test_writes_candidate_pairs(self, generated, tmp_path, capsys):
        output = tmp_path / "pairs.csv"
        code = main(["run", "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--output", str(output)])
        assert code == 0
        with output.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["id1", "id2"]
        assert len(rows) > 1
        assert "candidate pairs" in capsys.readouterr().out

    def test_missing_input_is_an_error_not_a_crash(self, tmp_path, capsys):
        code = main(["run", "--left", str(tmp_path / "absent.jsonl"),
                     "--output", str(tmp_path / "out.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_quality(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "PC=" in out and "PQ=" in out and "F1=" in out
        pc = float(out.split("PC=")[1].split()[0])
        assert pc > 0.8

    def test_dirty_evaluation(self, tmp_path, capsys):
        outdir = tmp_path / "dirty"
        main(["generate", "--dataset", "census", "--scale", "0.2",
              "--outdir", str(outdir)])
        code = main(["evaluate", "--left", str(outdir / "left.jsonl"),
                     "--ground-truth", str(outdir / "ground_truth.csv")])
        assert code == 0
        assert "PC=" in capsys.readouterr().out

    def test_optional_pairs_output(self, generated, tmp_path):
        output = tmp_path / "pairs.csv"
        main(["evaluate",
              "--left", str(generated / "left.jsonl"),
              "--right", str(generated / "right.jsonl"),
              "--ground-truth", str(generated / "ground_truth.csv"),
              "--output", str(output)])
        assert output.exists()

    def test_config_flags_accepted(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--induction", "ac", "--alpha", "0.8", "--no-entropy",
                     "--pruning-c", "3.0"])
        assert code == 0

    def test_blocking_flags_accepted(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--purging-ratio", "0.4", "--filtering-ratio", "0.7",
                     "--min-token-length", "3"])
        assert code == 0
        assert "PC=" in capsys.readouterr().out

    def test_registry_components_selectable(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--blocker", "token", "--weighting", "cbs",
                     "--pruning", "wnp1"])
        assert code == 0
        assert "PC=" in capsys.readouterr().out

    def test_supervised_needs_a_ground_truth(self, generated, tmp_path, capsys):
        inputs = ["--left", str(generated / "left.jsonl"),
                  "--right", str(generated / "right.jsonl"),
                  "--pruning", "supervised", "--seed", "42"]
        code = main(["evaluate", *inputs,
                     "--ground-truth", str(generated / "ground_truth.csv")])
        assert code == 0
        assert "PC=" in capsys.readouterr().out
        # `run` has no ground truth to train on: an error, not a traceback.
        code = main(["run", *inputs, "--output", str(tmp_path / "p.csv")])
        assert code == 1
        assert "ground-truth pairs" in capsys.readouterr().err

    def test_custom_registered_weighting_usable(self, generated, capsys):
        from repro.core.registry import WEIGHTINGS

        name = "unit-cli-test"
        if name not in WEIGHTINGS:  # survive test reruns in one process
            WEIGHTINGS.register(
                name, lambda graph: {edge: 1.0 for edge, _ in graph.edges()}
            )
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--weighting", name])
        assert code == 0
        assert "PC=" in capsys.readouterr().out

    def test_backend_selectable_and_equivalent(self, generated, tmp_path):
        outputs = {}
        for backend, extra in (
            ("python", []),
            ("vectorized", []),
            # workers=1 keeps the CLI test in-process; the pool path is
            # covered by the conformance suite.
            ("parallel", ["--workers", "1", "--shard-size", "64"]),
        ):
            output = tmp_path / f"pairs-{backend}.csv"
            code = main(["evaluate",
                         "--left", str(generated / "left.jsonl"),
                         "--right", str(generated / "right.jsonl"),
                         "--ground-truth", str(generated / "ground_truth.csv"),
                         "--backend", backend,
                         "--output", str(output), *extra])
            assert code == 0
            with output.open() as handle:
                outputs[backend] = sorted(csv.reader(handle))
        assert outputs["python"] == outputs["vectorized"]
        assert outputs["python"] == outputs["parallel"]

    def test_invalid_workers_reported_as_error(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--backend", "parallel", "--workers", "0"])
        assert code == 1
        assert "workers" in capsys.readouterr().err

    def test_workers_without_parallel_backend_is_an_error(self, generated,
                                                          capsys):
        # Not silently serial: the knob only exists on the parallel
        # backend, so forgetting --backend parallel must fail loudly.
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--workers", "4"])
        assert code == 1
        assert "parallel" in capsys.readouterr().err

    def test_unknown_backend_rejected(self, generated):
        with pytest.raises(SystemExit):
            main(["evaluate",
                  "--left", str(generated / "left.jsonl"),
                  "--right", str(generated / "right.jsonl"),
                  "--ground-truth", str(generated / "ground_truth.csv"),
                  "--backend", "gpu"])

    def test_removed_pool_flag_rejected(self, generated, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--left", str(generated / "left.jsonl"),
                  "--right", str(generated / "right.jsonl"),
                  "--output", str(tmp_path / "pairs.csv"),
                  "--backend", "parallel", "--pool", "per-run"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --pool" in capsys.readouterr().err

    def test_removed_spill_flag_rejected(self, generated, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--left", str(generated / "left.jsonl"),
                  "--right", str(generated / "right.jsonl"),
                  "--output", str(tmp_path / "pairs.csv"),
                  "--backend", "parallel", "--spill-dir", "x"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --spill-dir" in capsys.readouterr().err

    def test_unregistered_component_rejected(self, generated):
        with pytest.raises(SystemExit):
            main(["evaluate",
                  "--left", str(generated / "left.jsonl"),
                  "--right", str(generated / "right.jsonl"),
                  "--ground-truth", str(generated / "ground_truth.csv"),
                  "--blocker", "sorted-neighborhood"])

    def test_invalid_ratio_reported_as_error(self, generated, capsys):
        code = main(["evaluate",
                     "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--ground-truth", str(generated / "ground_truth.csv"),
                     "--purging-ratio", "0.0"])
        assert code == 1
        assert "purging_ratio" in capsys.readouterr().err

    def test_stage_report_flag(self, generated, tmp_path, capsys):
        code = main(["run", "--left", str(generated / "left.jsonl"),
                     "--right", str(generated / "right.jsonl"),
                     "--stage-report",
                     "--output", str(tmp_path / "pairs.csv")])
        assert code == 0
        out = capsys.readouterr().out
        assert "schema-extraction" in out and "meta-blocking" in out


class TestHelp:
    def test_help_lists_registered_components(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "blockers:" in out and "suffix-array" in out
        assert "weightings:" in out and "chi_h" in out
        assert "prunings:" in out and "blast" in out
        assert "backends:" in out and "vectorized" in out
        assert "stream views:" in out and "exact" in out

    def test_help_lists_stream_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "stream" in capsys.readouterr().out


class TestStream:
    @pytest.fixture
    def dirty_stream(self, tmp_path):
        outdir = tmp_path / "data"
        assert main(["generate", "--dataset", "census", "--scale", "0.3",
                     "--outdir", str(outdir)]) == 0
        return outdir / "left.jsonl"

    def test_replays_and_emits_candidates(self, dirty_stream, tmp_path, capsys):
        import json

        output = tmp_path / "matches.jsonl"
        code = main(["stream", "--input", str(dirty_stream),
                     "--output", str(output)])
        assert code == 0
        assert "queries/s" in capsys.readouterr().out
        lines = [json.loads(line) for line in output.read_text().splitlines()]
        assert all(line["op"] == "upsert" for line in lines)
        assert any(line["candidates"] for line in lines)
        # Arrival-time symmetry: every emitted partner arrived earlier.
        seen: set[str] = set()
        for line in lines:
            for candidate in line["candidates"]:
                assert candidate["id"] in seen
            seen.add(line["id"])

    def test_gzip_input_and_output(self, dirty_stream, tmp_path):
        import gzip
        import shutil

        gz_input = tmp_path / "stream.jsonl.gz"
        with dirty_stream.open("rb") as src, gzip.open(gz_input, "wb") as dst:
            shutil.copyfileobj(src, dst)
        output = tmp_path / "matches.jsonl.gz"
        assert main(["stream", "--input", str(gz_input),
                     "--output", str(output), "--consistency", "exact"]) == 0
        with gzip.open(output, "rt", encoding="utf-8") as handle:
            assert sum(1 for _ in handle) > 0

    def test_snapshot_written_and_restored(self, dirty_stream, tmp_path, capsys):
        snapshot = tmp_path / "snap.json.gz"
        assert main(["stream", "--input", str(dirty_stream),
                     "--snapshot", str(snapshot), "--no-query"]) == 0
        assert snapshot.exists()
        assert main(["stream", "--input", str(dirty_stream),
                     "--snapshot", str(snapshot)]) == 0
        assert "restored" in capsys.readouterr().out

    def test_missing_input_is_an_error_not_a_crash(self, tmp_path, capsys):
        code = main(["stream", "--input", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_edge_centric_pruning_reported_as_error(self, dirty_stream, capsys):
        code = main(["stream", "--input", str(dirty_stream),
                     "--pruning", "wep"])
        assert code == 1
        assert "node-centric" in capsys.readouterr().err

    def test_removed_backend_flag_rejected(self, dirty_stream, capsys):
        # --backend selects batch meta-blocking only; stream has no twin.
        with pytest.raises(SystemExit) as exit_info:
            main(["stream", "--input", str(dirty_stream),
                  "--backend", "python"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_ejs_weighting_reported_as_error(self, dirty_stream, capsys):
        code = main(["stream", "--input", str(dirty_stream),
                     "--weighting", "ejs"])
        assert code == 1
        assert "EJS" in capsys.readouterr().err
