"""The live block index: mutable interned-key -> posting-list blocking.

Batch BLAST indexes a frozen dataset once; this module keeps the same
blocking structure *mutable*.  An :class:`IncrementalBlockIndex` maps every
blocking key (plain token, or attribute-cluster-disambiguated
``token#cluster`` when a loose schema is supplied) to a
:class:`PostingList` of the live profiles containing it, and supports
``upsert``/``delete`` in time proportional to one profile's key set.

Keys are *interned*: a :class:`~repro.data.corpus.TokenDictionary` maps
each key string to a stable ``int32`` id on first sight, posting lists and
per-node key sets are held in id space, and strings are materialized only
at the public API boundary.  The dictionary grows incrementally — ids are
never reused or dropped, even when a key's last live member disappears —
and is serialized into session snapshots so posting-list identity survives
a :meth:`~repro.streaming.session.StreamingSession.snapshot`/
``restore`` round trip bit for bit.

Every write keeps what a query reads current: each posting's sorted
int64 member arrays, and grow-only count arrays indexed by id of every
key's live members and every node's live keys.

Consistency with the batch pipeline is by construction: keys are derived
through :func:`repro.blocking.schema_aware.profile_blocking_keys` — the
same function the batch blockers call — and the expensive restructurings
(Block Purging, Block Filtering) are *not* applied on mutation.  They are
evaluated lazily at query time by the views of ``repro.streaming.views``,
so every write stays cheap and every read can still reproduce batch
semantics exactly.

Node identity is stable: a ``(source, profile_id)`` pair keeps its integer
node id across upsert -> delete -> upsert cycles, which makes the index
state after such a cycle identical to the state after a single upsert.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.blocking.schema_aware import profile_blocking_keys, split_key
from repro.data.corpus import TokenDictionary
from repro.data.profile import EntityProfile
from repro.schema.partition import AttributePartitioning


_NO_IDS = np.zeros(0, dtype=np.int64)
_NO_KEY_COUNTS = np.zeros((2, 0), dtype=np.int64)


class PostingList:
    """The live members of one blocking key, as sorted int64 node arrays.

    Each side is the live prefix of a capacity-doubling buffer, kept sorted
    on write: ids rise, so a first upsert appends in place past every array
    handed out so far, while a revived node's insert or a discard writes a
    fresh copy.  The ``left``/``right`` views are cached until that side's
    next write, so an array read from them never changes afterwards.
    """

    __slots__ = ("_left", "_right", "_left_size", "_right_size",
                 "_left_view", "_right_view")

    def __init__(self, clean_clean: bool) -> None:
        self._left: np.ndarray = _NO_IDS
        self._right: np.ndarray | None = _NO_IDS if clean_clean else None
        self._left_size = self._right_size = 0
        self._left_view: np.ndarray | None = None  # cached until the next write
        self._right_view: np.ndarray | None = None

    @property
    def left(self) -> np.ndarray:
        """The sorted members from source 0 (every member when dirty)."""
        if self._left_view is None:
            self._left_view = self._left[: self._left_size]
        return self._left_view

    @property
    def right(self) -> np.ndarray | None:
        """The sorted members from source 1 (``None`` when dirty)."""
        if self._right_view is None and self._right is not None:
            self._right_view = self._right[: self._right_size]
        return self._right_view

    @property
    def is_clean_clean(self) -> bool:
        return self._right is not None

    @property
    def size(self) -> int:
        """Number of member profiles (both sources)."""
        return self._left_size + self._right_size

    @property
    def num_comparisons(self) -> int:
        """``||b||`` of the block this posting list denotes."""
        if self._right is not None:
            return self._left_size * self._right_size
        n = self._left_size
        return n * (n - 1) // 2

    def add(self, node: int, side: int) -> int:
        """Insert *node* on *side* in order; returns that side's count."""
        if side == 0:
            buffer, n = self._left, self._left_size
        else:
            buffer, n = self._right, self._right_size
        if n and buffer.item(n - 1) > node:  # a revived node: insert into a copy
            at = buffer[:n].searchsorted(node)
            buffer = np.concatenate((buffer[:at], (node,), buffer[at:n]))
        else:
            if n == buffer.size:  # full: double the capacity
                buffer = np.concatenate((buffer, np.empty(n or 4, np.int64)))
            buffer[n] = node
        return self._store(side, buffer, n + 1)

    def discard(self, node: int, side: int) -> int:
        """Remove *node* from *side* if present; returns that side's count."""
        members = self.left if side == 0 else self.right
        kept = members[members != node]
        return self._store(side, kept, kept.size)

    def _store(self, side: int, buffer: np.ndarray, n: int) -> int:
        if side == 0:
            self._left, self._left_size, self._left_view = buffer, n, None
        else:
            self._right, self._right_size, self._right_view = buffer, n, None
        return n

    def arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The sorted ``(left, right)`` member arrays."""
        return self.left, self.right

    def __repr__(self) -> str:
        return f"PostingList(size={self.size})"


def _fit(counts: np.ndarray, size: int) -> np.ndarray:
    """*counts*, zero-extended (doubling) along its last axis to hold *size* ids."""
    if size <= counts.shape[-1]:
        return counts
    out = np.zeros(counts.shape[:-1] + (max(size, 2 * counts.shape[-1]),), np.int64)
    out[..., : counts.shape[-1]] = counts
    return out


class IncrementalBlockIndex:
    """A mutable, loosely schema-aware token -> posting-list block index.

    Parameters
    ----------
    clean_clean:
        Two-source (clean-clean) or single-source (dirty) indexing.  For
        clean-clean indexes every operation takes a ``source`` of 0 or 1;
        dirty indexes accept only source 0.
    partitioning:
        Optional loose schema.  When given, blocking keys are disambiguated
        by attribute cluster (``token#cluster``) exactly as in the batch
        Phase 2, and :meth:`key_entropy` resolves each key to its cluster's
        aggregate entropy.
    min_token_length / transformation / q:
        Key-derivation tunables, forwarded verbatim to
        :func:`repro.blocking.schema_aware.profile_blocking_keys`.
    purging_ratio / max_comparisons / filtering_ratio:
        Block Purging and Block Filtering parameters.  They are *stored*
        here but applied lazily by the query-time views, never on mutation.
    key_dictionary:
        Pre-seeded key interning (a snapshot restore passes the serialized
        dictionary here so key ids survive the round trip).  A fresh
        dictionary is created when omitted.
    """

    def __init__(
        self,
        *,
        clean_clean: bool = False,
        partitioning: AttributePartitioning | None = None,
        min_token_length: int = 2,
        transformation: str = "token",
        q: int = 3,
        purging_ratio: float = 0.5,
        max_comparisons: int | None = None,
        filtering_ratio: float = 0.8,
        key_dictionary: TokenDictionary | None = None,
    ) -> None:
        if not 0.0 < purging_ratio <= 1.0:
            raise ValueError(f"purging_ratio must be in (0, 1], got {purging_ratio}")
        if not 0.0 < filtering_ratio <= 1.0:
            raise ValueError(
                f"filtering_ratio must be in (0, 1], got {filtering_ratio}"
            )
        self.clean_clean = clean_clean
        # key id -> h, lazy; created before the partitioning setter runs,
        # which clears it on every schema (re)assignment.
        self._entropies: dict[int, float] = {}
        self.partitioning = partitioning
        self.min_token_length = min_token_length
        self.transformation = transformation
        self.q = q
        self.purging_ratio = purging_ratio
        self.max_comparisons = max_comparisons
        self.filtering_ratio = filtering_ratio

        self.key_dictionary = key_dictionary or TokenDictionary()
        self._postings: dict[int, PostingList] = {}  # key id -> posting
        self._ids: dict[tuple[int, str], int] = {}  # stable, never removed
        self._profiles: dict[int, EntityProfile] = {}  # live nodes only
        self._sources: dict[int, int] = {}
        self._keys: dict[int, frozenset[int]] = {}  # node -> key ids
        self._key_counts = _NO_KEY_COUNTS  # [source, key id] -> members
        self._node_counts = _NO_IDS  # node -> live key count
        self._next_id = 0
        self._version = 0
        self._total_assignments = 0  # sum over live nodes of |keys|

    # -- introspection -------------------------------------------------------

    @property
    def partitioning(self) -> AttributePartitioning | None:
        """The loose schema keys are disambiguated and weighted against."""
        return self._partitioning

    @partitioning.setter
    def partitioning(self, value: AttributePartitioning | None) -> None:
        # Swapping the schema invalidates every cached per-key entropy;
        # without this, keys queried before the swap would keep entropies
        # from the previous partitioning generation.
        self._partitioning = value
        self._entropies.clear()

    @property
    def version(self) -> int:
        """Monotonic mutation counter; query views cache against it."""
        return self._version

    @property
    def num_profiles(self) -> int:
        """Live (non-deleted) profiles, indexed or not."""
        return len(self._profiles)

    @property
    def num_blocks(self) -> int:
        """Distinct blocking keys with at least one live member."""
        return len(self._postings)

    @property
    def total_block_assignments(self) -> int:
        """``sum_i |B_i|`` over live nodes (incrementally maintained)."""
        return self._total_assignments

    def __len__(self) -> int:
        return len(self._profiles)

    def __contains__(self, key: object) -> bool:
        kid = self.key_dictionary.get(key) if isinstance(key, str) else None
        return kid is not None and kid in self._postings

    def posting(self, key: str) -> PostingList:
        """The posting list of *key* (KeyError when no live member has it)."""
        kid = self.key_dictionary.get(key)
        if kid is None or kid not in self._postings:
            raise KeyError(key)
        return self._postings[kid]

    def posting_by_id(self, kid: int) -> PostingList:
        """The posting list of an interned key id (KeyError when dead)."""
        return self._postings[kid]

    def keys(self) -> Iterator[str]:
        """Iterate over the live blocking keys (arbitrary order)."""
        token_of = self.key_dictionary.token_of
        return (token_of(kid) for kid in self._postings)

    def key_ids(self) -> Iterator[int]:
        """Iterate over the live interned key ids (arbitrary order)."""
        return iter(self._postings)

    def key_string(self, kid: int) -> str:
        """The key string an interned id stands for (live or not)."""
        return self.key_dictionary.token_of(kid)

    def live_nodes(self) -> list[int]:
        """All live node ids, ascending (== arrival order of first upsert)."""
        return sorted(self._profiles)

    def node_map_payload(self) -> list[list]:
        """Every ``(source, profile_id) -> node`` assignment, in node order.

        Tombstoned profiles are included: the map is what keeps node ids
        stable across upsert -> delete -> upsert cycles, so a snapshot
        round trip must carry all of it for the restored index to assign
        the same ids — and therefore the same equal-weight neighbor
        ordering — as the index that never restarted.
        """
        return [
            [source, profile_id, node]
            for (source, profile_id), node in sorted(
                self._ids.items(), key=lambda item: item[1]
            )
        ]

    def seed_node_map(self, entries: Iterable[Sequence]) -> None:
        """Pre-seed the node-id map from :meth:`node_map_payload` output.

        Restore-time only: the index must still be empty.
        """
        if self._ids:
            raise ValueError(
                "the node map can only be seeded into an empty index"
            )
        for source, profile_id, node in entries:
            self._ids[(int(source), str(profile_id))] = int(node)
        if self._ids:
            self._next_id = max(self._ids.values()) + 1

    def node_of(self, profile_id: str, source: int = 0) -> int:
        """The live node id of ``(source, profile_id)`` (KeyError if absent)."""
        node = self._ids.get((source, str(profile_id)))
        if node is None or node not in self._profiles:
            raise KeyError(
                f"profile {profile_id!r} (source {source}) is not in the index"
            )
        return node

    def profile_of(self, node: int) -> EntityProfile:
        return self._profiles[node]

    def source_of(self, node: int) -> int:
        return self._sources[node]

    def keys_of(self, node: int) -> frozenset[str]:
        """The blocking keys of a live node, as strings."""
        token_of = self.key_dictionary.token_of
        return frozenset(token_of(kid) for kid in self._keys[node])

    def key_ids_of(self, node: int) -> frozenset[int]:
        """The interned blocking-key ids of a live node."""
        return self._keys[node]

    def node_block_count(self, node: int) -> int:
        """Raw ``|B_i|`` of a live node (purging/filtering not applied)."""
        return len(self._keys[node])

    @property
    def key_member_counts(self) -> np.ndarray:
        """Live members per source (row) of every key id; grows on write."""
        return self._key_counts

    @property
    def node_key_counts(self) -> np.ndarray:
        """Raw ``|B_i|`` of every node id (zero when dead); grows on write."""
        return self._node_counts

    def key_entropy(self, key: str) -> float:
        """Aggregate entropy of *key*'s attribute cluster (1.0 without schema)."""
        if self.partitioning is None:
            return 1.0
        kid = self.key_dictionary.get(key)
        if kid is not None:
            return self.key_entropy_by_id(kid)
        _, cluster = split_key(key)
        return self.partitioning.entropy_of(cluster)

    def key_entropy_by_id(self, kid: int) -> float:
        """:meth:`key_entropy` for an interned key id (cached per id)."""
        if self.partitioning is None:
            return 1.0
        entropy = self._entropies.get(kid)
        if entropy is None:
            _, cluster = split_key(self.key_dictionary.token_of(kid))
            entropy = self.partitioning.entropy_of(cluster)
            self._entropies[kid] = entropy
        return entropy

    def derive_keys(self, profile: EntityProfile, source: int = 0) -> set[str]:
        """The blocking keys *profile* would be indexed under."""
        return profile_blocking_keys(
            profile,
            source,
            self.partitioning,
            min_token_length=self.min_token_length,
            transformation=self.transformation,
            q=self.q,
        )

    # -- mutation ------------------------------------------------------------

    def _check_source(self, source: int) -> None:
        if self.clean_clean:
            if source not in (0, 1):
                raise ValueError(f"source must be 0 or 1, got {source}")
        elif source != 0:
            raise ValueError(f"a dirty index has a single source, got {source}")

    def upsert(self, profile: EntityProfile, source: int = 0) -> int:
        """Insert or replace *profile*; returns its (stable) node id.

        Re-upserting an identical live profile is a no-op (the version does
        not move, so cached query views stay valid).
        """
        self._check_source(source)
        ref = (source, profile.profile_id)
        node = self._ids.get(ref)
        if node is not None and self._profiles.get(node) == profile:
            return node
        if node is None:
            node = self._next_id
            self._next_id += 1
            self._ids[ref] = node

        # Unseen keys are interned in sorted order, so fresh ids depend only
        # on the sequence of profiles, never on string hashing.
        new_keys = self.key_dictionary.intern_set(
            self.derive_keys(profile, source)
        )
        old_keys = self._keys.get(node, frozenset())
        self._key_counts = _fit(self._key_counts, len(self.key_dictionary))
        self._node_counts = _fit(self._node_counts, self._next_id)
        self._unlink(node, source, old_keys - new_keys)
        self._link(node, source, new_keys - old_keys if old_keys else new_keys)
        self._node_counts[node] = len(new_keys)
        self._profiles[node] = profile
        self._sources[node] = source
        self._keys[node] = new_keys
        self._total_assignments += len(new_keys) - len(old_keys)
        self._version += 1
        return node

    def delete(self, profile_id: str, source: int = 0) -> bool:
        """Remove a live profile; returns whether anything was deleted.

        The ``(source, profile_id) -> node`` mapping (and every interned
        key id) is kept, so a later re-upsert revives the same node id and
        the same posting-list keys.
        """
        self._check_source(source)
        node = self._ids.get((source, str(profile_id)))
        if node is None or node not in self._profiles:
            return False
        self._unlink(node, source, self._keys[node])
        self._total_assignments -= len(self._keys[node])
        self._node_counts[node] = 0
        del self._profiles[node]
        del self._sources[node]
        del self._keys[node]
        self._version += 1
        return True

    def _link(self, node: int, source: int, kids: frozenset[int]) -> None:
        """Add *node* to the postings of *kids* and count it."""
        postings = self._postings
        counts = self._key_counts[source]
        for kid in kids:
            posting = postings.get(kid)
            if posting is None:
                posting = postings[kid] = PostingList(self.clean_clean)
            counts[kid] = posting.add(node, source)

    def _unlink(self, node: int, source: int, kids: frozenset[int]) -> None:
        """Remove *node* from the postings of *kids*; drop emptied keys."""
        postings = self._postings
        counts = self._key_counts[source]
        for kid in kids:
            posting = postings[kid]
            counts[kid] = posting.discard(node, source)
            if posting.size == 0:
                del postings[kid]

    def __repr__(self) -> str:
        kind = "clean-clean" if self.clean_clean else "dirty"
        return (
            f"IncrementalBlockIndex(kind={kind}, profiles={self.num_profiles}, "
            f"keys={self.num_blocks}, version={self.version})"
        )
