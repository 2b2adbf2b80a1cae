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


class PostingList:
    """The live members of one blocking key.

    Mutation happens on plain Python sets; :meth:`arrays` lowers the sets
    to sorted int64 numpy arrays on demand and caches them until the next
    mutation, so the vectorized query kernels always gather from
    array-backed postings.
    """

    __slots__ = ("left", "right", "_arrays")

    def __init__(self, clean_clean: bool) -> None:
        self.left: set[int] = set()
        self.right: set[int] | None = set() if clean_clean else None
        self._arrays: tuple[np.ndarray, np.ndarray | None] | None = None

    @property
    def is_clean_clean(self) -> bool:
        return self.right is not None

    @property
    def size(self) -> int:
        """Number of member profiles (both sources)."""
        return len(self.left) + (len(self.right) if self.right else 0)

    @property
    def num_comparisons(self) -> int:
        """``||b||`` of the block this posting list denotes."""
        if self.right is not None:
            return len(self.left) * len(self.right)
        n = len(self.left)
        return n * (n - 1) // 2

    def add(self, node: int, side: int) -> None:
        (self.left if side == 0 else self.right).add(node)
        self._arrays = None

    def discard(self, node: int, side: int) -> None:
        (self.left if side == 0 else self.right).discard(node)
        self._arrays = None

    def arrays(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Sorted ``(left, right)`` member arrays (cached until mutated)."""
        if self._arrays is None:
            left = np.fromiter(
                sorted(self.left), dtype=np.int64, count=len(self.left)
            )
            right = None
            if self.right is not None:
                right = np.fromiter(
                    sorted(self.right), dtype=np.int64, count=len(self.right)
                )
            self._arrays = (left, right)
        return self._arrays

    def __repr__(self) -> str:
        return f"PostingList(size={self.size})"


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

        # Interning in sorted key order keeps id assignment deterministic
        # (set iteration order is not) — fresh ids depend only on the
        # sequence of profiles, never on string hashing.
        intern = self.key_dictionary.intern
        new_keys = frozenset(
            intern(key) for key in sorted(self.derive_keys(profile, source))
        )
        old_keys = self._keys.get(node, frozenset())
        for kid in old_keys - new_keys:
            self._remove_membership(kid, node, source)
        for kid in new_keys - old_keys:
            posting = self._postings.get(kid)
            if posting is None:
                posting = PostingList(self.clean_clean)
                self._postings[kid] = posting
            posting.add(node, source)

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
        for kid in self._keys[node]:
            self._remove_membership(kid, node, source)
        self._total_assignments -= len(self._keys[node])
        del self._profiles[node]
        del self._sources[node]
        del self._keys[node]
        self._version += 1
        return True

    def _remove_membership(self, kid: int, node: int, source: int) -> None:
        posting = self._postings.get(kid)
        if posting is None:
            return
        posting.discard(node, source)
        if posting.size == 0:
            del self._postings[kid]

    def __repr__(self) -> str:
        kind = "clean-clean" if self.clean_clean else "dirty"
        return (
            f"IncrementalBlockIndex(kind={kind}, profiles={self.num_profiles}, "
            f"keys={self.num_blocks}, version={self.version})"
        )
