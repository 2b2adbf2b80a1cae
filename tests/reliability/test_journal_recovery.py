"""Journaled sessions: WAL semantics, torn tails, crash-point recovery.

The contract under test: ``StreamingSession.recover(snapshot, journal)``
is indistinguishable from the session that never crashed — same live
profiles, same neighborhoods, bit for bit — for any operation sequence
and any crash point, including a crash *between* the journal append and
the in-memory apply.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BlastConfig
from repro.data import EntityProfile
from repro.streaming import SnapshotCorruptionError, StreamingSession


def profile(pid: str, text: str) -> EntityProfile:
    return EntityProfile.from_dict(pid, {"name": text})


def make_session(journal=None) -> StreamingSession:
    return StreamingSession(
        BlastConfig(purging_ratio=1.0, weighting="cbs"), journal=journal
    )


def state_of(session: StreamingSession) -> dict:
    """Every live profile's full weighted neighborhood (the oracle view)."""
    index = session.index
    return {
        index.profile_of(node).profile_id: [
            (c.profile_id, c.weight)
            for c in session.neighborhood(index.profile_of(node).profile_id)
        ]
        for node in index.live_nodes()
    }


class TestJournalBasics:
    def test_operations_are_logged_before_they_apply(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        with make_session(journal=journal) as session:
            session.upsert(profile("a", "john abram"))
            session.delete("a")
        lines = [
            json.loads(line)
            for line in journal.read_text(encoding="utf-8").splitlines()
        ]
        assert [(r["seq"], r["op"]) for r in lines] == [
            (1, "upsert"), (2, "delete"),
        ]

    def test_unjournaled_session_writes_nothing(self, tmp_path):
        session = make_session()
        session.upsert(profile("a", "john abram"))
        session.close()
        assert list(tmp_path.iterdir()) == []
        assert session.journal_path is None

    def test_close_is_idempotent(self, tmp_path):
        session = make_session(journal=tmp_path / "wal.jsonl")
        session.close()
        session.close()

    def test_fresh_session_refuses_a_used_journal(self, tmp_path):
        # Appending seq 1.. on top of an earlier history would orphan
        # the crashed session's committed records — fail loudly instead.
        journal = tmp_path / "wal.jsonl"
        with make_session(journal=journal) as session:
            session.upsert(profile("a", "john abram"))
        with pytest.raises(ValueError, match="recover"):
            make_session(journal=journal)

    def test_fresh_session_accepts_an_empty_journal_file(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        journal.touch()
        with make_session(journal=journal) as session:
            session.upsert(profile("a", "john abram"))
        assert journal.read_text(encoding="utf-8").count("\n") == 1


class TestRecover:
    def test_recover_equals_never_crashed(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        session = make_session(journal=journal)
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        session.snapshot(snap)
        session.upsert(profile("c", "ellen smith"))
        session.upsert(profile("d", "ellen smith"))
        session.delete("b")
        expected = state_of(session)
        session.close()  # "crash": no further snapshot

        recovered = StreamingSession.recover(snap, journal)
        assert state_of(recovered) == expected
        recovered.close()

    def test_recovered_session_keeps_journaling(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        session = make_session(journal=journal)
        session.upsert(profile("a", "john abram"))
        session.snapshot(snap)
        session.close()

        recovered = StreamingSession.recover(snap, journal)
        recovered.upsert(profile("b", "john abram"))
        expected = state_of(recovered)
        recovered.close()
        # A second crash after the first recovery still recovers.
        again = StreamingSession.recover(snap, journal)
        assert state_of(again) == expected
        again.close()

    def test_torn_tail_is_dropped_and_truncated(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        session = make_session(journal=journal)
        session.upsert(profile("a", "john abram"))
        session.snapshot(snap)
        session.upsert(profile("b", "john abram"))
        expected = state_of(session)
        session.close()

        committed = journal.read_bytes()
        journal.write_bytes(committed + b'{"seq": 3, "op": "upse')
        recovered = StreamingSession.recover(snap, journal)
        assert state_of(recovered) == expected
        assert journal.read_bytes() == committed  # tail truncated away
        recovered.close()

    def test_missing_journal_reads_as_empty(self, tmp_path):
        snap = tmp_path / "snap.json.gz"
        session = make_session()
        session.upsert(profile("a", "john abram"))
        session.snapshot(snap)
        recovered = StreamingSession.recover(snap, tmp_path / "wal.jsonl")
        assert state_of(recovered) == state_of(session)
        recovered.close()

    def test_committed_garbage_line_is_corruption(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        make_session().snapshot(snap)
        journal.write_text("not json\n", encoding="utf-8")
        with pytest.raises(SnapshotCorruptionError, match="JSON"):
            StreamingSession.recover(snap, journal)

    def test_journal_behind_the_snapshot_is_corruption(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        session = make_session(journal=journal)
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        session.snapshot(snap)  # records journal position 2
        session.close()
        journal.write_text(
            '{"seq": 1, "op": "delete", "id": "a", "source": 0}\n',
            encoding="utf-8",
        )
        with pytest.raises(SnapshotCorruptionError, match="seq"):
            StreamingSession.recover(snap, journal)

    def test_crash_before_the_first_snapshot_recovers_via_factory(
        self, tmp_path
    ):
        # The whole history lives in the journal; the caller supplies
        # the configuration a snapshot would otherwise carry.
        journal = tmp_path / "wal.jsonl"
        session = make_session(journal=journal)
        session.upsert(profile("a", "john abram"))
        session.upsert(profile("b", "john abram"))
        expected = state_of(session)
        session.close()  # crash: no snapshot was ever written

        recovered = StreamingSession.recover(
            tmp_path / "never-written.json.gz",
            journal,
            session_factory=make_session,
        )
        assert state_of(recovered) == expected
        # The journal is re-attached with the sequence continued.
        recovered.upsert(profile("c", "ellen smith"))
        recovered.close()
        last = json.loads(
            journal.read_text(encoding="utf-8").splitlines()[-1]
        )
        assert last["seq"] == 3

    def test_recover_without_snapshot_or_factory_is_an_error(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        with pytest.raises(TypeError, match="session_factory"):
            StreamingSession.recover(None, journal)
        with pytest.raises(FileNotFoundError):
            StreamingSession.recover(tmp_path / "missing.json.gz", journal)

    def test_factory_must_not_attach_its_own_journal(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        with pytest.raises(ValueError, match="unjournaled"):
            StreamingSession.recover(
                None,
                journal,
                session_factory=lambda: make_session(
                    journal=tmp_path / "other.jsonl"
                ),
            )

    def test_sequence_gap_is_corruption(self, tmp_path):
        snap, journal = tmp_path / "snap.json.gz", tmp_path / "wal.jsonl"
        make_session().snapshot(snap)
        journal.write_text(
            '{"seq": 1, "op": "upsert", "id": "a", "source": 0,'
            ' "attributes": [["name", "x"]]}\n'
            '{"seq": 3, "op": "delete", "id": "a", "source": 0}\n',
            encoding="utf-8",
        )
        with pytest.raises(SnapshotCorruptionError, match="missing"):
            StreamingSession.recover(snap, journal)


class TestCrashInTheCommitWindow:
    def test_kill_between_append_and_apply_recovers_exactly(self, tmp_path):
        # The acceptance scenario: the process dies after the journal
        # line is durable but before the operation is applied in memory.
        # Recovery must include that operation — the journal is the truth.
        snap = tmp_path / "snap.json.gz"
        journal = tmp_path / "wal.jsonl"
        make_session().snapshot(snap)  # empty baseline, journal_seq 0

        code = (
            "from repro.core import BlastConfig\n"
            "from repro.data import EntityProfile\n"
            "from repro.streaming import StreamingSession\n"
            "s = StreamingSession(BlastConfig(purging_ratio=1.0,"
            f" weighting='cbs'), journal={str(journal)!r})\n"
            "def prof(pid, name):\n"
            "    return EntityProfile.from_dict(pid, {'name': name})\n"
            "s.upsert(prof('a', 'john abram'))\n"
            "s.upsert(prof('b', 'john abram'))\n"
            "s.upsert(prof('c', 'ellen smith'))\n"
            "raise SystemExit('unreachable: the fault should have fired')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, REPRO_FAULTS="journal.apply=kill@3"),
            capture_output=True,
        )
        assert result.returncode == 23, result.stderr.decode()

        oracle = make_session()
        oracle.upsert(profile("a", "john abram"))
        oracle.upsert(profile("b", "john abram"))
        oracle.upsert(profile("c", "ellen smith"))

        recovered = StreamingSession.recover(snap, journal)
        assert state_of(recovered) == state_of(oracle)
        recovered.close()

    def test_kill_before_append_loses_only_the_last_operation(self, tmp_path):
        # Dying before the line is durable loses exactly that operation:
        # the journal and the state agree on the prefix.
        snap = tmp_path / "snap.json.gz"
        journal = tmp_path / "wal.jsonl"
        make_session().snapshot(snap)

        code = (
            "from repro.core import BlastConfig\n"
            "from repro.data import EntityProfile\n"
            "from repro.streaming import StreamingSession\n"
            "s = StreamingSession(BlastConfig(purging_ratio=1.0,"
            f" weighting='cbs'), journal={str(journal)!r})\n"
            "def prof(pid, name):\n"
            "    return EntityProfile.from_dict(pid, {'name': name})\n"
            "s.upsert(prof('a', 'john abram'))\n"
            "s.upsert(prof('b', 'john abram'))\n"
            "s.upsert(prof('c', 'ellen smith'))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, REPRO_FAULTS="journal.append=kill@3"),
            capture_output=True,
        )
        assert result.returncode == 23, result.stderr.decode()

        oracle = make_session()
        oracle.upsert(profile("a", "john abram"))
        oracle.upsert(profile("b", "john abram"))

        recovered = StreamingSession.recover(snap, journal)
        assert state_of(recovered) == state_of(oracle)
        recovered.close()


# -- the property: any ops, any crash point ----------------------------------

IDS = ("p0", "p1", "p2", "p3")
WORDS = ("john abram", "ellen smith", "john smith", "abram street")

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("upsert"),
            st.sampled_from(IDS),
            st.sampled_from(WORDS),
        ),
        st.tuples(
            st.just("delete"),
            st.sampled_from(IDS),
            st.none(),
        ),
    ),
    min_size=1,
    max_size=12,
)


@given(ops=operations, data=st.data())
@settings(max_examples=30, deadline=None)
def test_recover_matches_uninterrupted_session_for_any_crash_point(
    tmp_path_factory, ops, data
):
    snapshot_at = data.draw(
        st.integers(min_value=0, max_value=len(ops)), label="snapshot_at"
    )
    tmp = tmp_path_factory.mktemp("recovery")
    snap, journal = tmp / "snap.json.gz", tmp / "wal.jsonl"

    def apply(session, op):
        kind, pid, text = op
        if kind == "upsert":
            session.upsert(profile(pid, text))
        else:
            session.delete(pid)

    session = make_session(journal=journal)
    for op in ops[:snapshot_at]:
        apply(session, op)
    session.snapshot(snap)
    for op in ops[snapshot_at:]:
        apply(session, op)
    expected = state_of(session)
    session.close()  # crash: the post-snapshot suffix lives only in the WAL

    oracle = make_session()
    for op in ops:
        apply(oracle, op)
    assert state_of(oracle) == expected  # journaling never changes results

    recovered = StreamingSession.recover(snap, journal)
    assert state_of(recovered) == expected
    recovered.close()
