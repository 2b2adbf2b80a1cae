"""The interned columnar corpus: one tokenization pass, shared by every layer.

BLAST is token-centric end to end — attribute entropies, loose schema
clustering, blocking keys and edge weighting all consume the same terms —
yet the natural per-layer implementation re-tokenizes and re-hashes the raw
strings once per consumer.  This module runs the value transformation
function tau exactly **once** per dataset and exposes the result as flat
columnar arrays over interned integer ids:

* a :class:`TokenDictionary` interns every token string to a stable
  ``int32`` id (and every attribute to an attribute id);
* an :class:`InternedCorpus` stores one row per *token occurrence* in
  profile order — parallel ``attr_ids``/``token_ids`` arrays with a CSR
  ``profile_ptr`` delimiting each profile's span — so multiplicities
  survive (entropy extraction counts frequencies) while distinct-token
  views are a single sort away.

Consumers downstream (``repro.blocking``, ``repro.schema``, the CSR
lowering of ``repro.graph.entity_index`` and the benchmarks) derive their
keys and statistics from these id arrays and materialize strings only at
API boundaries.  The corpus is built lazily and cached on
:attr:`repro.data.ERDataset.corpus`.

Token ids are *stable*: they are assigned in first-occurrence order of the
single pass, and :meth:`TokenDictionary.to_payload` /
:meth:`TokenDictionary.from_payload` round-trip them losslessly (the
streaming snapshot format relies on this to keep posting-list keys valid
across restarts).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Iterator, Sequence
from functools import cached_property
from itertools import repeat
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.utils.arrays import sorted_unique
from repro.utils.tokenize import VALUE_BOUNDARY, qgrams, suffixes, tokenize_many

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (dataset -> here)
    from repro.data.dataset import ERDataset

#: Attribute references mirror ``repro.schema.partition.AttributeRef``.
AttributeRef = tuple[int, str]

#: Token ids are int32; the dictionary refuses to grow past this.
MAX_TOKEN_ID = 2**31 - 1

#: Values per ``tokenize_many`` call: bounds the transient token strings and
#: confines a non-ASCII value's slower Unicode branch to its own batch.
_BATCH_VALUES = 8192


class TokenDictionary:
    """String -> ``int32`` interning with stable, dense, serializable ids.

    Ids are assigned contiguously from 0 in interning order and are never
    reused or removed, so an id remains a valid name for its string for
    the lifetime of the dictionary (and across a
    :meth:`to_payload`/:meth:`from_payload` round trip).

    >>> d = TokenDictionary()
    >>> d.intern("abram"), d.intern("st"), d.intern("abram")
    (0, 1, 0)
    >>> d.token_of(1)
    'st'
    """

    __slots__ = ("_ids", "_tokens")

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        self._tokens: list[str] = []
        self._ids: dict[str, int] = {}
        for token in tokens:
            self.intern(token)

    def intern(self, token: str) -> int:
        """The id of *token*, allocating a fresh one on first sight."""
        tid = self._ids.get(token)
        if tid is None:
            tid = len(self._tokens)
            if tid > MAX_TOKEN_ID:
                raise OverflowError("token dictionary exceeded int32 id space")
            self._ids[token] = tid
            self._tokens.append(token)
        return tid

    def intern_set(self, tokens: Collection[str]) -> frozenset[int]:
        """The ids of *tokens*; unseen ones are interned in sorted order, so
        their ids never depend on the iteration order of *tokens*."""
        get = self._ids.get
        ids = frozenset(map(get, tokens))
        if None in ids:
            for token in sorted(t for t in tokens if t not in self._ids):
                self.intern(token)
            ids = frozenset(map(get, tokens))
        return ids

    def id_of(self, token: str) -> int:
        """The id of an already-interned *token* (KeyError if unknown)."""
        return self._ids[token]

    def get(self, token: str, default: int | None = None) -> int | None:
        """The id of *token*, or *default* when it was never interned."""
        return self._ids.get(token, default)

    def token_of(self, tid: int) -> str:
        """The string a token id stands for."""
        return self._tokens[tid]

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: object) -> bool:
        return token in self._ids

    def __iter__(self) -> Iterator[str]:
        """Iterate over the interned strings in id order."""
        return iter(self._tokens)

    def __repr__(self) -> str:
        return f"TokenDictionary(size={len(self)})"

    def ids_of(self, tokens: Sequence[str], default: int) -> np.ndarray:
        """``int64`` id per string of *tokens*; *default* where never interned."""
        return np.fromiter(
            map(self._ids.get, tokens, repeat(default)),
            dtype=np.int64,
            count=len(tokens),
        )

    def lengths(self) -> np.ndarray:
        """Character length of every interned string, indexed by id."""
        return np.fromiter(
            map(len, self._tokens), dtype=np.int32, count=len(self._tokens)
        )

    def to_payload(self) -> list[str]:
        """JSON-serializable form: the strings in id order."""
        return list(self._tokens)

    @classmethod
    def from_payload(cls, tokens: Iterable[str]) -> "TokenDictionary":
        """Rebuild a dictionary, preserving the ids :meth:`to_payload` saved."""
        dictionary = cls()
        for position, token in enumerate(tokens):
            if dictionary.intern(str(token)) != position:
                raise ValueError(f"duplicate token {token!r} in payload")
        return dictionary


class InternedCorpus:
    """Columnar, id-interned view of every token occurrence of a dataset.

    Attributes
    ----------
    dictionary:
        Token string <-> id interning (shared by every consumer).
    attributes:
        ``attr_id -> (source, name)``; the inverse of :meth:`attr_id_of`.
    profile_ptr:
        ``int64[num_profiles + 1]`` — profile *p*'s token occurrences are
        rows ``profile_ptr[p] : profile_ptr[p + 1]`` of the flat arrays.
    attr_ids / token_ids:
        Parallel ``int32`` arrays, one row per token occurrence, in
        profile-then-value order (multiplicities preserved).
    offset2:
        Global index of the first E2 profile (``num_profiles`` for dirty).
    """

    def __init__(
        self,
        dictionary: TokenDictionary,
        attributes: tuple[AttributeRef, ...],
        profile_ptr: np.ndarray,
        attr_ids: np.ndarray,
        token_ids: np.ndarray,
        offset2: int,
        is_clean_clean: bool,
    ) -> None:
        self.dictionary = dictionary
        self.attributes = attributes
        self.profile_ptr = profile_ptr
        self.attr_ids = attr_ids
        self.token_ids = token_ids
        self.offset2 = offset2
        self.is_clean_clean = is_clean_clean
        self._attr_index: dict[AttributeRef, int] = {
            ref: aid for aid, ref in enumerate(attributes)
        }
        self._cache: dict[tuple, object] = {}

    @classmethod
    def build(cls, dataset: "ERDataset") -> "InternedCorpus":
        """Tokenize *dataset* once — the single pass everything else shares.

        One Python pass collects the value strings; tokenizing, interning
        and array assembly then run per batch of values, not per occurrence.

        Tokens are kept down to length 1 (``min_length=1``); consumers
        apply their own length floors through the cached
        :attr:`token_lengths` array, so one corpus serves every
        ``min_token_length`` setting.
        """
        num_profiles = dataset.num_profiles
        if num_profiles > MAX_TOKEN_ID:
            raise OverflowError("corpus profile space exceeds int32")
        offset2 = dataset.offset2 if dataset.is_clean_clean else num_profiles
        attributes: list[AttributeRef] = []
        attr_index: dict[AttributeRef, int] = {}
        values: list[str] = []
        value_attrs: list[int] = []
        value_ptr: list[int] = [0]
        for gidx, profile in dataset.iter_profiles():
            source = 0 if gidx < offset2 else 1
            for name, value in profile.iter_pairs():
                ref = (source, name)
                aid = attr_index.get(ref)
                if aid is None:
                    aid = len(attributes)
                    attr_index[ref] = aid
                    attributes.append(ref)
                value_attrs.append(aid)
                values.append(value)
            value_ptr.append(len(values))
        # Everything per token runs at C level, a bounded batch at a time.
        dictionary = TokenDictionary()
        token_chunks = [np.zeros(0, dtype=np.int32)]
        count_chunks = [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(values), _BATCH_VALUES):
            stream = tokenize_many(values[lo : lo + _BATCH_VALUES])
            # dict order is first-occurrence order: per-occurrence ids.
            for token in dict.fromkeys(stream):
                if token != VALUE_BOUNDARY:
                    dictionary.intern(token)
            codes = dictionary.ids_of(stream, default=-1)
            # A boundary (the only -1) ends every value but the batch's last.
            ends = np.flatnonzero(np.r_[codes < 0, True])
            count_chunks.append(np.diff(ends, prepend=-1) - 1)
            token_chunks.append(codes[codes >= 0].astype(np.int32))
        counts = np.concatenate(count_chunks)
        token_ptr = np.r_[0, np.cumsum(counts)]
        return cls(
            dictionary=dictionary,
            attributes=tuple(attributes),
            profile_ptr=token_ptr[np.asarray(value_ptr, dtype=np.int64)],
            attr_ids=np.repeat(np.asarray(value_attrs, dtype=np.int32), counts),
            token_ids=np.concatenate(token_chunks),
            offset2=offset2,
            is_clean_clean=dataset.is_clean_clean,
        )

    # -- basic views ---------------------------------------------------------

    @property
    def num_profiles(self) -> int:
        return len(self.profile_ptr) - 1

    @property
    def num_occurrences(self) -> int:
        """Total token occurrences (the ``nnz`` of the columnar layout)."""
        return int(self.token_ids.size)

    @property
    def vocabulary_size(self) -> int:
        return len(self.dictionary)

    def attr_id_of(self, source: int, name: str) -> int | None:
        """Attribute id of ``(source, name)``, or ``None`` if never seen."""
        return self._attr_index.get((source, name))

    @cached_property
    def token_lengths(self) -> np.ndarray:
        """Character length per token id (consumers filter on this)."""
        return self.dictionary.lengths()

    @cached_property
    def occurrence_rows(self) -> np.ndarray:
        """Profile (global) index of every occurrence row, ``int64[nnz]``."""
        return np.repeat(
            np.arange(self.num_profiles, dtype=np.int64),
            np.diff(self.profile_ptr),
        )

    def _source_bounds(self, source: int) -> tuple[int, int]:
        if source == 0:
            return 0, self.offset2
        if not self.is_clean_clean:
            raise ValueError(f"a dirty corpus has a single source, got {source}")
        return self.offset2, self.num_profiles

    def __repr__(self) -> str:
        return (
            f"InternedCorpus(profiles={self.num_profiles}, "
            f"occurrences={self.num_occurrences}, "
            f"vocabulary={self.vocabulary_size})"
        )

    # -- distinct-token views ------------------------------------------------

    def distinct_profile_tokens(
        self, min_token_length: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``(profile, token)`` assignments, row-major sorted.

        Returns parallel int64 ``(rows, tokens)`` arrays with tokens of at
        least *min_token_length* characters — the id-space analogue of
        ``EntityProfile.tokens()`` over the whole dataset.  Cached per
        length floor.
        """
        key = ("profile_tokens", min_token_length)
        cached = self._cache.get(key)
        if cached is None:
            mask = self.token_lengths[self.token_ids] >= min_token_length
            rows = self.occurrence_rows[mask]
            toks = self.token_ids[mask].astype(np.int64)
            packed = sorted_unique((rows << np.int64(31)) | toks)
            cached = (packed >> np.int64(31), packed & np.int64(MAX_TOKEN_ID))
            self._cache[key] = cached
        return cached

    def profile_token_id_sets(
        self, min_token_length: int
    ) -> tuple[frozenset[int], ...]:
        """Per-profile distinct token-id sets (e.g. for canopy Jaccard)."""
        key = ("token_sets", min_token_length)
        cached = self._cache.get(key)
        if cached is None:
            rows, toks = self.distinct_profile_tokens(min_token_length)
            bounds = np.searchsorted(
                rows, np.arange(self.num_profiles + 1, dtype=np.int64)
            )
            toks_list = toks.tolist()
            cached = tuple(
                frozenset(toks_list[bounds[p] : bounds[p + 1]])
                for p in range(self.num_profiles)
            )
            self._cache[key] = cached
        return cached

    def attribute_term_counts(
        self, source: int, min_token_length: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per ``(attribute, token)`` occurrence counts of one source.

        Returns parallel ``(attr_ids, token_ids, counts)`` int64 arrays
        sorted by attribute then token — the ``np.bincount``-style input
        entropy extraction and attribute profiling consume instead of
        Counter-over-strings.
        """
        key = ("attr_counts", source, min_token_length)
        cached = self._cache.get(key)
        if cached is None:
            start, end = self._source_bounds(source)
            lo, hi = int(self.profile_ptr[start]), int(self.profile_ptr[end])
            attrs = self.attr_ids[lo:hi].astype(np.int64)
            toks = self.token_ids[lo:hi].astype(np.int64)
            mask = self.token_lengths[self.token_ids[lo:hi]] >= min_token_length
            vocab = np.int64(max(1, self.vocabulary_size))
            codes = attrs[mask] * vocab + toks[mask]
            codes.sort()  # in place, where np.unique would sort a copy
            # Count each run of equal codes from its head (none if empty).
            heads = np.flatnonzero(np.r_[codes.size > 0, codes[1:] != codes[:-1]])
            unique, counts = codes[heads], np.diff(heads, append=codes.size)
            cached = (unique // vocab, unique % vocab, counts)
            self._cache[key] = cached
        return cached

    # -- per-token expansions (q-grams, suffixes) ----------------------------

    def _expansion_table(
        self, key: tuple, expand: Callable[[str], Iterable[str]]
    ) -> tuple[TokenDictionary, np.ndarray, np.ndarray]:
        """Memoized per-token expansion: token id -> derived-term id list.

        Returns ``(terms, ptr, ids)`` where ``ids[ptr[t]:ptr[t+1]]`` are
        the (deduplicated, first-seen order) derived-term ids of token
        ``t`` and *terms* interns the derived strings.  Each distinct
        token is expanded exactly once per corpus.
        """
        cached = self._cache.get(key)
        if cached is None:
            terms = TokenDictionary()
            ptr = [0]
            ids: list[int] = []
            intern = terms.intern
            for token in self.dictionary:
                seen: set[int] = set()
                for term in expand(token):
                    tid = intern(term)
                    if tid not in seen:
                        seen.add(tid)
                        ids.append(tid)
                ptr.append(len(ids))
            cached = (
                terms,
                np.asarray(ptr, dtype=np.int64),
                np.asarray(ids, dtype=np.int64),
            )
            self._cache[key] = cached
        return cached

    def qgram_table(self, q: int) -> tuple[TokenDictionary, np.ndarray, np.ndarray]:
        """Character q-grams per token id (:func:`repro.utils.tokenize.qgrams`)."""
        return self._expansion_table(("qgrams", q), lambda t: qgrams(t, q))

    def suffix_table(
        self, min_length: int
    ) -> tuple[TokenDictionary, np.ndarray, np.ndarray]:
        """Token suffixes per token id (see :func:`repro.utils.tokenize.suffixes`)."""
        return self._expansion_table(
            ("suffixes", min_length), lambda t: suffixes(t, min_length)
        )

    def expand_tokens(
        self,
        rows: np.ndarray,
        toks: np.ndarray,
        table: tuple[TokenDictionary, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand ``(row, token)`` pairs through a per-token derivation table.

        Returns ``(rows_out, term_ids, positions)`` where *positions*
        indexes the input pair each expanded row came from (so callers can
        carry parallel per-pair payloads, e.g. cluster ids, through the
        expansion).
        """
        _, ptr, ids = table
        counts = ptr[toks + 1] - ptr[toks]
        total = int(counts.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        positions = np.repeat(np.arange(toks.size, dtype=np.int64), counts)
        offsets = np.zeros(toks.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        starts = np.repeat(ptr[toks] - offsets, counts)
        flat = starts + np.arange(total, dtype=np.int64)
        return rows[positions], ids[flat], positions
