"""The streaming facade: one object from arriving profile to candidates.

A :class:`StreamingSession` bundles an
:class:`~repro.streaming.index.IncrementalBlockIndex` and a
:class:`~repro.streaming.metablocker.StreamingMetaBlocker` behind the
four verbs of incremental ER — ``upsert``, ``delete``, ``candidates``,
``replay`` — plus ``snapshot``/``restore`` persistence so a warmed index
survives restarts.

The JSON-lines *stream format* extends the collection format of
``repro.data.io`` with an optional ``"source"`` (0/1, clean-clean only)
and an optional ``"op"`` (``"upsert"`` default, or ``"delete"``)::

    {"id": "p1", "attributes": [["name", "John Abram Jr"]]}
    {"id": "p7", "source": 1, "attributes": [["full name", "Ellen Smith"]]}
    {"op": "delete", "id": "p1"}

``repro stream`` replays such a file (``.gz`` transparently) and emits
each arrival's retained candidates as they are computed.

Sessions are **single-writer**: ``upsert``/``delete``/``snapshot`` guard
themselves with a non-blocking tripwire lock and raise
:class:`ConcurrentWriterError` when two writers interleave — the index
and the journal have no internal locking, so concurrent mutation would
corrupt them silently otherwise.  ``repro.serving`` satisfies the
contract by giving every tenant session exactly one actor task.

Crash safety (see DESIGN.md "Reliability & recovery"): snapshots are
written atomically (same-directory temp file + ``fsync`` + ``os.replace``)
and carry a CRC32 checksum verified on :meth:`StreamingSession.restore` —
a truncated, bit-flipped, or other-format snapshot raises
:class:`SnapshotCorruptionError` naming the file and the reason.  With
``journal=`` set, every ``upsert``/``delete`` is appended to a JSON-lines
write-ahead journal *before* it is applied, and
:meth:`StreamingSession.recover` rebuilds the exact pre-crash state from
the last snapshot plus the journal tail.
"""

from __future__ import annotations

import gzip
import itertools
import json
import os
import threading
import zlib
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from repro.core.config import BlastConfig
from repro.data.corpus import TokenDictionary
from repro.data.dataset import ERDataset
from repro.data.io import IngestReport, iter_json_records, profile_from_record
from repro.data.profile import EntityProfile
from repro.graph.pruning import (
    BlastPruning,
    CardinalityNodePruning,
    PruningScheme,
    WeightNodePruning,
)
from repro.reliability import FAULTS
from repro.schema.partition import AttributePartitioning
from repro.streaming.index import IncrementalBlockIndex
from repro.streaming.metablocker import Candidate, StreamingMetaBlocker

__all__ = [
    "SNAPSHOT_FORMAT",
    "ConcurrentWriterError",
    "SnapshotCorruptionError",
    "StreamRecord",
    "ReplayEvent",
    "StreamingSession",
    "iter_stream",
    "parse_stream_record",
]

#: Version stamp of the snapshot file layout, the only one restore reads:
#: the payload sits in a ``{"format", "checksum", "payload"}`` envelope
#: whose CRC32 is verified on restore.
SNAPSHOT_FORMAT = 2

#: Disambiguates concurrent same-process snapshot temp files (e.g. an
#: interval snapshot orphaned by task cancellation racing the close-time
#: snapshot); the pid alone only covers cross-process races.
_SNAPSHOT_TMP_IDS = itertools.count()


class SnapshotCorruptionError(ValueError):
    """A snapshot (or its journal) cannot be trusted: truncated gzip,
    checksum mismatch, undecodable JSON, or a format other than the one
    this library writes.  The message always names the file and reason."""


class ConcurrentWriterError(RuntimeError):
    """Two writers touched a :class:`StreamingSession` at the same time.

    A session is **single-writer**: ``upsert``, ``delete``, and
    ``snapshot`` mutate (or serialize a consistent view of) the posting
    lists, node maps, and write-ahead journal with no internal locking,
    so two concurrent writers would silently corrupt the index and
    interleave journal lines.  The serving layer (``repro.serving``)
    enforces the contract structurally — one actor task owns each
    session — and this error makes any other concurrent use fail loudly
    instead.  Wrap a session in your own mutex if you must share it
    across threads.
    """


@dataclass
class _Exclusive:
    """The writer lock held for one verb (see ``StreamingSession._exclusive``)."""

    lock: threading.Lock
    verb: str

    def __enter__(self) -> None:
        if not self.lock.acquire(blocking=False):
            raise ConcurrentWriterError(
                f"StreamingSession.{self.verb}() entered while another "
                "writer holds the session; sessions are single-writer — "
                "route all mutations through one owner (e.g. the "
                "repro.serving tenant actor) or add external locking"
            )

    def __exit__(self, *exc_info) -> None:
        self.lock.release()


@dataclass(frozen=True)
class StreamRecord:
    """One parsed line of a profile stream."""

    op: str  # "upsert" | "delete"
    profile_id: str
    source: int
    profile: EntityProfile | None  # None for deletes


@dataclass(frozen=True)
class ReplayEvent:
    """The outcome of applying one stream record.

    ``candidates`` carries the arrival-time query result for upserts and
    ``None`` for deletes; ``applied`` is ``False`` for deletes of unknown
    profiles.
    """

    record: StreamRecord
    candidates: list[Candidate] | None
    applied: bool = True


def parse_stream_record(record: dict) -> StreamRecord:
    """Decode one stream line (see the module docstring for the format)."""
    op = str(record.get("op", "upsert"))
    source = int(record.get("source", 0))
    if op == "delete":
        return StreamRecord(op, str(record["id"]), source, None)
    if op != "upsert":
        raise ValueError(f"unknown stream op {op!r}")
    profile = profile_from_record(record)
    return StreamRecord(op, profile.profile_id, source, profile)


def iter_stream(
    path: str | Path,
    *,
    on_error: str = "raise",
    report: IngestReport | None = None,
) -> Iterator[StreamRecord]:
    """Stream the records of a JSON-lines file, lazily, ``.gz`` aware.

    ``on_error``/``report`` quarantine malformed lines instead of
    aborting the replay — see :func:`repro.data.io.iter_json_records`.
    """
    return iter_json_records(
        path, parse_stream_record, on_error=on_error, report=report
    )


class StreamingSession:
    """Incremental ER over a stream of entity profiles.

    Parameters
    ----------
    config:
        Every tunable a session reads (token length, purging/filtering
        ratios, ``weighting``, ``entropy_boost``, BLAST pruning constants,
        ``stream_consistency``, ``stream_query_k``); defaults to
        :class:`BlastConfig`'s paper defaults.  ``backend`` and its
        options select *batch* meta-blocking and are not read here.
    clean_clean:
        Two-source (every record carries ``source`` 0/1) or dirty.
    partitioning:
        Optional loose schema for attribute-cluster-disambiguated keys and
        entropy-aware weighting — e.g. extracted from a warm-up batch via
        :meth:`from_dataset`.
    pruning:
        Node-centric pruning scheme (WNP / CNP are not expressible in
        ``BlastConfig``); defaults to BLAST's rule with the config's
        ``pruning_c``/``pruning_d``.
    journal:
        Optional path of an append-only JSON-lines write-ahead journal.
        Every ``upsert``/``delete`` is appended (and flushed) *before* it
        is applied, so a crash at any point loses at most the one
        operation whose journal line never became durable;
        :meth:`recover` replays the tail on top of the last snapshot.

    Example
    -------
    >>> from repro.streaming import StreamingSession
    >>> from repro.data import EntityProfile
    >>> session = StreamingSession()
    >>> for pid, name in [("a", "John Abram"), ("b", "John Abram"),
    ...                   ("c", "Ellen Smith"), ("d", "Ellen Smith")]:
    ...     _ = session.upsert(EntityProfile.from_dict(pid, {"name": name}))
    >>> [c.profile_id for c in session.candidates("a")]
    ['b']
    """

    def __init__(
        self,
        config: BlastConfig | None = None,
        *,
        clean_clean: bool = False,
        partitioning: AttributePartitioning | None = None,
        pruning: PruningScheme | None = None,
        journal: str | Path | None = None,
    ) -> None:
        config = config or BlastConfig()
        self.config = config
        if partitioning is not None and not config.use_entropy:
            # Keys stay disambiguated but every cluster weighs 1.0 (the
            # "chi" ablation): drop only the entropy lookup, not the schema.
            partitioning = partitioning.with_entropies({})
        self.index = IncrementalBlockIndex(
            clean_clean=clean_clean,
            partitioning=partitioning,
            min_token_length=config.min_token_length,
            purging_ratio=config.purging_ratio,
            filtering_ratio=config.filtering_ratio,
        )
        self.metablocker = StreamingMetaBlocker(
            self.index,
            weighting=config.weighting,
            pruning=(
                pruning
                if pruning is not None
                else BlastPruning(c=config.pruning_c, d=config.pruning_d)
            ),
            entropy_boost=config.entropy_boost,
            consistency=config.stream_consistency,
        )
        self.default_k = config.stream_query_k
        self._writer_lock = threading.Lock()
        self._journal_path: Path | None = None
        self._journal_handle: IO[str] | None = None
        self._journal_seq = 0
        if journal is not None:
            journal = Path(journal)
            if journal.exists() and journal.stat().st_size > 0:
                # Appending seq 1.. on top of an earlier history would
                # corrupt the journal and silently orphan the records a
                # crashed session already committed.
                raise ValueError(
                    f"journal {journal} already contains records; resume "
                    "it with StreamingSession.recover(snapshot, journal) "
                    "or remove the file to start a new history"
                )
            self._attach_journal(journal)

    @classmethod
    def from_dataset(
        cls,
        dataset: ERDataset,
        config: BlastConfig | None = None,
        *,
        extract_schema: bool = True,
        **overrides,
    ) -> "StreamingSession":
        """A warmed session: loose schema from *dataset*, profiles upserted.

        The batch Phase 1 (LMI/AC + entropy extraction) runs once over the
        dataset when *extract_schema* is set; the profiles are then
        replayed in dataset order, so the session's canonical ids equal
        the batch global indices.  *overrides* (``pruning``, ``journal``)
        go to the constructor.
        """
        config = config or BlastConfig()
        partitioning = None
        if extract_schema:
            from repro.core.stages import SchemaExtraction

            partitioning = SchemaExtraction(config).extract(dataset)
        session = cls(
            config,
            clean_clean=dataset.is_clean_clean,
            partitioning=partitioning,
            **overrides,
        )
        for gidx, profile in dataset.iter_profiles():
            session.upsert(profile, source=dataset.source_of(gidx))
        return session

    # -- the single-writer contract ------------------------------------------

    def _exclusive(self, verb: str) -> _Exclusive:
        """Hold the writer lock for one mutating verb; never blocks.

        The lock is a *tripwire*, not a synchronization primitive: a
        second writer arriving while one is inside a verb indicates a
        broken single-writer contract (see :class:`ConcurrentWriterError`)
        and fails immediately rather than waiting its turn over a
        possibly half-mutated index.
        """
        return _Exclusive(self._writer_lock, verb)

    # -- the four verbs ------------------------------------------------------

    def upsert(self, profile: EntityProfile, source: int = 0) -> int:
        """Insert or replace a profile; returns its stable node id."""
        with self._exclusive("upsert"):
            self._journal_write(
                {
                    "op": "upsert",
                    "id": profile.profile_id,
                    "source": source,
                    "attributes": [list(pair) for pair in profile.attributes],
                }
            )
            return self._apply_upsert(profile, source)

    def delete(self, profile_id: str, source: int = 0) -> bool:
        """Remove a profile; ``False`` when it was not in the index."""
        with self._exclusive("delete"):
            self._journal_write(
                {"op": "delete", "id": profile_id, "source": source}
            )
            return self._apply_delete(profile_id, source)

    # The non-journaling halves of the verbs: restore/recover replay
    # through these so rebuilding state never re-appends to the journal.

    def _apply_upsert(self, profile: EntityProfile, source: int = 0) -> int:
        return self.index.upsert(profile, source)

    def _apply_delete(self, profile_id: str, source: int = 0) -> bool:
        return self.index.delete(profile_id, source)

    def candidates(
        self, ref, k: int | None = None, source: int = 0
    ) -> list[Candidate]:
        """The retained comparison partners of an indexed profile."""
        return self.metablocker.candidates(
            ref, k=k if k is not None else self.default_k, source=source
        )

    def neighborhood(self, ref, source: int = 0) -> list[Candidate]:
        """All co-occurring profiles with weights (unpruned)."""
        return self.metablocker.neighborhood(ref, source=source)

    def replay(
        self,
        records: Iterable[StreamRecord | EntityProfile],
        k: int | None = None,
        query: bool = True,
    ) -> Iterator[ReplayEvent]:
        """Apply a record stream, yielding each arrival's candidates.

        Bare :class:`EntityProfile` items are treated as source-0 upserts.
        With ``query=False`` the index is only built (bulk loading).
        """
        for item in records:
            if isinstance(item, EntityProfile):
                item = StreamRecord("upsert", item.profile_id, 0, item)
            if item.op == "delete":
                applied = self.delete(item.profile_id, item.source)
                yield ReplayEvent(item, None, applied)
                continue
            assert item.profile is not None
            self.upsert(item.profile, item.source)
            result = (
                self.candidates(item.profile_id, k=k, source=item.source)
                if query
                else None
            )
            yield ReplayEvent(item, result)

    # -- persistence ---------------------------------------------------------

    def snapshot(self, path: str | Path) -> None:
        """Persist the warmed session as one JSON document (``.gz`` aware).

        The snapshot carries the session configuration, the loose schema,
        and every live profile in node-id order, so :meth:`restore`
        rebuilds an equivalent session (identical canonical ids, identical
        query results) without re-running schema extraction.

        The write is atomic: the document goes to a same-directory temp
        file that is fsynced and then :func:`os.replace`d over *path*, so
        a crash mid-write leaves the previous snapshot intact.  The
        payload's CRC32 travels in the envelope and is verified on
        :meth:`restore`.
        """
        path = Path(path)
        with self._exclusive("snapshot"):
            payload = self._snapshot_payload()
        body = _canonical_payload_bytes(payload)
        document = {
            "format": SNAPSHOT_FORMAT,
            "checksum": zlib.crc32(body),
            "payload": payload,
        }
        data = json.dumps(document, ensure_ascii=False).encode("utf-8") + b"\n"
        if path.suffix == ".gz":
            # mtime=0 keeps the compressed bytes deterministic.
            data = gzip.compress(data, mtime=0)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(_SNAPSHOT_TMP_IDS)}.tmp"
        )
        try:
            with tmp.open("wb") as handle:
                handle.write(data)
                handle.flush()
                FAULTS.fire("snapshot.write", path=tmp)
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def _snapshot_payload(self) -> dict:
        index = self.index
        return {
            "kind": "clean-clean" if index.clean_clean else "dirty",
            "index": {
                "min_token_length": index.min_token_length,
                "transformation": index.transformation,
                "q": index.q,
                "purging_ratio": index.purging_ratio,
                "max_comparisons": index.max_comparisons,
                "filtering_ratio": index.filtering_ratio,
            },
            "metablocker": {
                "weighting": self.metablocker.weighting.value,
                "entropy_boost": self.metablocker.entropy_boost,
                "consistency": self.metablocker.consistency,
                "pruning": _pruning_to_payload(self.metablocker.pruning),
            },
            "default_k": self.default_k,
            # The interned key dictionary, in id order: restore pre-seeds
            # it so posting-list key ids survive the round trip even
            # through upsert -> delete -> upsert histories.
            "dictionary": index.key_dictionary.to_payload(),
            # Every (source, id) -> node assignment ever made, tombstones
            # included: restore pre-seeds it so node ids — and with them
            # the equal-weight neighbor ordering — survive upsert ->
            # delete -> upsert histories.
            "nodes": index.node_map_payload(),
            "partitioning": (
                index.partitioning.to_dict()
                if index.partitioning is not None
                else None
            ),
            "profiles": [
                {
                    "id": index.profile_of(node).profile_id,
                    "source": index.source_of(node),
                    "attributes": [
                        list(pair)
                        for pair in index.profile_of(node).attributes
                    ],
                }
                for node in index.live_nodes()
            ],
            # The journal position this state already reflects: recover()
            # replays only lines with a greater sequence number.
            "journal_seq": self._journal_seq,
        }

    @classmethod
    def restore(cls, path: str | Path) -> "StreamingSession":
        """Rebuild a session from a :meth:`snapshot` file.

        Raises :class:`SnapshotCorruptionError` when the file is
        truncated, fails its checksum, is not decodable JSON, or claims a
        format other than :data:`SNAPSHOT_FORMAT`.
        """
        return cls._from_payload(_read_snapshot(path))

    @classmethod
    def _from_payload(cls, payload: dict) -> "StreamingSession":
        meta = payload["metablocker"]
        session = cls.__new__(cls)
        partitioning = (
            AttributePartitioning.from_dict(payload["partitioning"])
            if payload["partitioning"] is not None
            else None
        )
        index_cfg = payload["index"]
        pruning = _pruning_from_payload(meta["pruning"])
        # Reconstruct the public config attribute so restored sessions are
        # indistinguishable from freshly built ones to config consumers.
        session.config = BlastConfig(
            min_token_length=index_cfg["min_token_length"],
            purging_ratio=index_cfg["purging_ratio"],
            filtering_ratio=index_cfg["filtering_ratio"],
            weighting=meta["weighting"],
            entropy_boost=meta["entropy_boost"],
            pruning_c=getattr(pruning, "c", 2.0),
            pruning_d=getattr(pruning, "d", 2.0),
            stream_consistency=meta["consistency"],
            stream_query_k=payload["default_k"],
        )
        session.index = IncrementalBlockIndex(
            clean_clean=payload["kind"] == "clean-clean",
            partitioning=partitioning,
            min_token_length=index_cfg["min_token_length"],
            transformation=index_cfg["transformation"],
            q=index_cfg["q"],
            purging_ratio=index_cfg["purging_ratio"],
            max_comparisons=index_cfg["max_comparisons"],
            filtering_ratio=index_cfg["filtering_ratio"],
            key_dictionary=TokenDictionary.from_payload(payload["dictionary"]),
        )
        session.metablocker = StreamingMetaBlocker(
            session.index,
            weighting=meta["weighting"],
            pruning=pruning,
            entropy_boost=meta["entropy_boost"],
            consistency=meta["consistency"],
        )
        session.index.seed_node_map(payload["nodes"])
        session.default_k = session.config.stream_query_k
        session._writer_lock = threading.Lock()
        session._journal_path = None
        session._journal_handle = None
        session._journal_seq = int(payload["journal_seq"])
        for record in payload["profiles"]:
            session._apply_upsert(
                profile_from_record(record), source=int(record.get("source", 0))
            )
        return session

    @classmethod
    def recover(
        cls,
        snapshot: str | Path | None,
        journal: str | Path,
        *,
        session_factory: Callable[[], "StreamingSession"] | None = None,
    ) -> "StreamingSession":
        """Rebuild the exact pre-crash session: snapshot + journal tail.

        Restores *snapshot*, then replays every journal line whose
        sequence number the snapshot does not already cover.  A torn
        final line (no trailing newline — the crash interrupted the
        append) is discarded and truncated away; a *committed*
        (newline-terminated) but undecodable line means real corruption
        and raises :class:`SnapshotCorruptionError`, as does a journal
        that ends before the snapshot's recorded position.

        When the crash predated the first snapshot, *snapshot* may be
        ``None`` or name a file that does not exist yet: recovery then
        starts from a fresh session built by *session_factory* (the
        caller supplies the configuration the snapshot would otherwise
        carry; the factory must not attach a journal itself) and replays
        the whole journal.

        The returned session has the journal re-attached in append mode,
        so it continues exactly like a session that never crashed —
        neighborhoods, candidates, and future snapshots are bit-for-bit
        identical.
        """
        journal = Path(journal)
        if snapshot is not None and Path(snapshot).exists():
            session = cls._from_payload(_read_snapshot(snapshot))
        elif session_factory is not None:
            session = session_factory()
            if session.journal_path is not None:
                raise ValueError(
                    "session_factory must build an unjournaled session; "
                    "recover() attaches the journal itself"
                )
        elif snapshot is None:
            raise TypeError(
                "recover() without a snapshot path requires session_factory="
            )
        else:
            # A named-but-missing snapshot and no fallback factory: let
            # the read raise the usual FileNotFoundError.
            session = cls._from_payload(_read_snapshot(snapshot))
        base_seq = session._journal_seq
        applied_seq = base_seq
        max_seen = 0
        for record in _read_journal(journal):
            seq = int(record.get("seq", 0))
            max_seen = max(max_seen, seq)
            if seq <= base_seq:
                continue
            if seq != applied_seq + 1:
                raise SnapshotCorruptionError(
                    f"{journal}: journal jumps from seq {applied_seq} to "
                    f"{seq}; records are missing"
                )
            if record.get("op") == "delete":
                session._apply_delete(
                    str(record["id"]), int(record.get("source", 0))
                )
            else:
                session._apply_upsert(
                    profile_from_record(record), int(record.get("source", 0))
                )
            applied_seq = seq
        if max_seen < base_seq:
            raise SnapshotCorruptionError(
                f"{journal}: journal ends at seq {max_seen} but the snapshot "
                f"already reflects seq {base_seq}; wrong or truncated journal"
            )
        session._journal_seq = applied_seq
        session._attach_journal(journal)
        return session

    # -- journal --------------------------------------------------------------

    @property
    def journal_path(self) -> Path | None:
        """The attached write-ahead journal, or ``None``."""
        return self._journal_path

    def _attach_journal(self, path: str | Path) -> None:
        self._journal_path = Path(path)
        self._journal_handle = self._journal_path.open(
            "a", encoding="utf-8", newline="\n"
        )

    def _journal_write(self, record: dict) -> None:
        if self._journal_handle is None:
            return
        self._journal_seq += 1
        record = {"seq": self._journal_seq, **record}
        # WAL contract: the line is appended and flushed *before* the
        # operation is applied; a record is committed once its newline
        # reaches the OS.  The two fault sites bracket the commit point.
        FAULTS.fire("journal.append", path=self._journal_path)
        self._journal_handle.write(
            json.dumps(record, ensure_ascii=False) + "\n"
        )
        self._journal_handle.flush()
        FAULTS.fire("journal.apply", path=self._journal_path)

    def close(self) -> None:
        """Flush and close the journal (idempotent; no-op when unjournaled)."""
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamingSession(profiles={self.index.num_profiles}, "
            f"keys={self.index.num_blocks}, "
            f"consistency={self.metablocker.consistency!r})"
        )


# -- snapshot & journal files -------------------------------------------------

def _canonical_payload_bytes(payload: dict) -> bytes:
    """The byte string the snapshot checksum is computed over.

    Canonical JSON (sorted keys, no whitespace) so the checksum depends
    only on the payload's *content*, not on serializer formatting.
    """
    return json.dumps(
        payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _read_snapshot(path: str | Path) -> dict:
    """Read, verify, and unwrap a format-2 snapshot; returns the payload.

    Every way the file can be untrustworthy — truncated gzip stream,
    undecodable JSON, checksum mismatch, any other format — raises
    :class:`SnapshotCorruptionError` naming the path and the reason.
    """
    path = Path(path)
    raw = path.read_bytes()
    if path.suffix == ".gz":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise SnapshotCorruptionError(
                f"{path}: truncated or corrupt gzip stream ({exc})"
            ) from exc
    try:
        document = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotCorruptionError(
            f"{path}: snapshot is not decodable JSON ({exc})"
        ) from exc
    if not isinstance(document, dict):
        raise SnapshotCorruptionError(
            f"{path}: snapshot is not a JSON object"
        )
    version = document.get("format")
    if version != SNAPSHOT_FORMAT:
        raise SnapshotCorruptionError(
            f"{path}: unsupported snapshot format {version!r} "
            f"(this library reads format {SNAPSHOT_FORMAT})"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise SnapshotCorruptionError(
            f"{path}: format-2 snapshot has no payload object"
        )
    expected = document.get("checksum")
    actual = zlib.crc32(_canonical_payload_bytes(payload))
    if expected != actual:
        raise SnapshotCorruptionError(
            f"{path}: checksum mismatch (stored {expected!r}, "
            f"computed {actual}); the snapshot is corrupt"
        )
    return payload


def _read_journal(path: Path) -> Iterator[dict]:
    """Yield the committed records of a write-ahead journal.

    A record is committed once its trailing newline is on disk; a torn
    final line (the crash interrupted the append) is dropped and
    truncated away so the journal is clean for re-attachment.  A
    *committed* line that does not decode is real corruption and raises
    :class:`SnapshotCorruptionError`.  A missing file reads as empty
    (the crash predated the first append).
    """
    if not path.exists():
        return
    raw = path.read_bytes()
    committed, _, torn = raw.rpartition(b"\n")
    if torn:
        with path.open("r+b") as handle:
            handle.truncate(len(raw) - len(torn))
    if not committed:
        return
    for line_no, line in enumerate(committed.split(b"\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotCorruptionError(
                f"{path}:{line_no}: committed journal line is not "
                f"decodable JSON ({exc})"
            ) from exc
        if not isinstance(record, dict):
            raise SnapshotCorruptionError(
                f"{path}:{line_no}: journal line is not a JSON object"
            )
        yield record


# -- pruning (de)serialization -----------------------------------------------
# Only the node-centric schemes a StreamingMetaBlocker accepts can ever
# reach a snapshot, so only those are encoded.

def _pruning_to_payload(pruning: PruningScheme) -> dict:
    """Serialize a built-in node-centric pruning scheme."""
    kind = type(pruning)
    if kind is BlastPruning:
        return {"type": "blast", "c": pruning.c, "d": pruning.d}
    if kind is WeightNodePruning:
        return {"type": "wnp", "reciprocal": pruning.reciprocal}
    if kind is CardinalityNodePruning:
        return {"type": "cnp", "reciprocal": pruning.reciprocal, "k": pruning.k}
    raise ValueError(
        f"cannot snapshot custom pruning scheme {kind.__name__}"
    )


def _pruning_from_payload(payload: dict) -> PruningScheme:
    kind = payload["type"]
    if kind == "blast":
        return BlastPruning(c=payload["c"], d=payload["d"])
    if kind == "wnp":
        return WeightNodePruning(reciprocal=payload["reciprocal"])
    if kind == "cnp":
        return CardinalityNodePruning(
            reciprocal=payload["reciprocal"], k=payload["k"]
        )
    raise ValueError(f"unknown pruning payload type {kind!r}")
