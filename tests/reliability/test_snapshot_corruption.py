"""Crash-safe snapshots: atomic writes, checksums, corruption detection."""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import zlib

import pytest

from repro.core import BlastConfig
from repro.data import EntityProfile
from repro.reliability import FAULTS
from repro.streaming import SnapshotCorruptionError, StreamingSession
from repro.streaming.session import SNAPSHOT_FORMAT


def profile(pid: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(pid, {"name": text})


def warmed_session() -> StreamingSession:
    session = StreamingSession(
        BlastConfig(purging_ratio=1.0, weighting="cbs")
    )
    session.upsert(profile("a", "john abram"))
    session.upsert(profile("b", "john abram"))
    session.upsert(profile("c", "ellen smith"))
    return session


class TestCorruptionDetection:
    @pytest.mark.parametrize("suffix", ["snap.json", "snap.json.gz"])
    def test_truncated_snapshot_rejected(self, tmp_path, suffix):
        path = tmp_path / suffix
        warmed_session().snapshot(path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            StreamingSession.restore(path)
        assert str(path) in str(excinfo.value)

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        path = tmp_path / "snap.json"
        warmed_session().snapshot(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["payload"]["default_k"] = 999  # any payload change
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError, match="checksum"):
            StreamingSession.restore(path)

    def test_future_format_rejected_with_the_format_named(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"format": 99}), encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError, match="format"):
            StreamingSession.restore(path)

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text("not a snapshot", encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError, match="JSON"):
            StreamingSession.restore(path)

    def test_corruption_error_is_a_value_error(self):
        # The CLI's catch-all for user errors is (OSError, ValueError).
        assert issubclass(SnapshotCorruptionError, ValueError)

    def test_injected_truncation_at_the_write_site(self, tmp_path):
        # A torn write published anyway (bit rot between write and read)
        # must be caught by restore, not produce a silently-wrong session.
        path = tmp_path / "snap.json.gz"
        with FAULTS.injected("snapshot.write", "truncate", value=32):
            warmed_session().snapshot(path)
        with pytest.raises(SnapshotCorruptionError):
            StreamingSession.restore(path)

    def test_injected_bit_flip_at_the_write_site(self, tmp_path):
        path = tmp_path / "snap.json"
        with FAULTS.injected("snapshot.write", "corrupt"):
            warmed_session().snapshot(path)
        with pytest.raises(SnapshotCorruptionError):
            StreamingSession.restore(path)


class TestAtomicity:
    def test_crash_during_write_keeps_the_old_snapshot(self, tmp_path):
        path = tmp_path / "snap.json.gz"
        warmed_session().snapshot(path)
        before = path.read_bytes()

        code = (
            "from repro.core import BlastConfig\n"
            "from repro.data import EntityProfile\n"
            "from repro.streaming import StreamingSession\n"
            "s = StreamingSession(BlastConfig(purging_ratio=1.0,"
            " weighting='cbs'))\n"
            "s.upsert(EntityProfile.from_dict('z', {'name': 'new state'}))\n"
            f"s.snapshot({str(path)!r})\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, REPRO_FAULTS="snapshot.write=kill"),
            capture_output=True,
        )
        assert result.returncode == 23
        # The published snapshot is byte-identical to the previous one and
        # still restores; the torn temp file never replaced it.
        assert path.read_bytes() == before
        restored = StreamingSession.restore(path)
        assert restored.index.num_profiles == 3

    def test_no_temp_file_survives_a_clean_snapshot(self, tmp_path):
        path = tmp_path / "snap.json"
        warmed_session().snapshot(path)
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_gzip_snapshot_bytes_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json.gz", tmp_path / "b.json.gz"
        session = warmed_session()
        session.snapshot(a)
        session.snapshot(b)
        assert a.read_bytes() == b.read_bytes()


class TestFormatCompatibility:
    def test_format_1_documents_are_rejected(self, tmp_path):
        session = warmed_session()
        v2 = tmp_path / "v2.json.gz"
        session.snapshot(v2)
        with gzip.open(v2, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)["payload"]
        payload["format"] = 1  # the pre-envelope layout: no checksum
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError) as excinfo:
            StreamingSession.restore(v1)
        message = str(excinfo.value)
        assert str(v1) in message
        assert "unsupported snapshot format 1" in message
        assert f"reads format {SNAPSHOT_FORMAT})" in message

    def test_format_2_with_a_backend_key_still_restores(self, tmp_path):
        # Earlier format-2 snapshots carried metablocker.backend; restore
        # ignores it.
        session = warmed_session()
        path = tmp_path / "snap.json"
        session.snapshot(path)
        document = json.loads(path.read_text(encoding="utf-8"))
        payload = document["payload"]
        payload["metablocker"]["backend"] = "python"
        document["checksum"] = zlib.crc32(
            json.dumps(
                payload, ensure_ascii=False, sort_keys=True,
                separators=(",", ":"),
            ).encode("utf-8")
        )
        path.write_text(json.dumps(document), encoding="utf-8")
        restored = StreamingSession.restore(path)
        for pid in ("a", "b", "c"):
            assert restored.candidates(pid) == session.candidates(pid)
