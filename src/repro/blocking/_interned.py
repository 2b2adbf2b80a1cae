"""Array-side block assembly over the interned corpus.

Every token-derived blocker reduces to the same shape of work: produce
``(profile, key)`` assignments, deduplicate them, group by key, drop the
groups that imply no comparison, and emit the blocks in sorted-key order.
The kernels here run the whole reduction in numpy over integer key codes,
and never materialize a key string unless someone reads it.

A key code is ``term * modulus + suffix``: a term id of a string
dictionary, disambiguated by a suffix in ``range(modulus)`` (the
schema-aware blocker's attribute cluster, Standard Blocking's aligned
group).  It reads as ``f"{term}{separator}{suffix}"``
(:func:`packed_key_of`), or as the term alone when there is no separator
(token, q-gram and suffix keys, and the streaming index's key ids, all
with ``modulus == 1``).

**Order lemma.** No term contains its separator: terms are ``[^\\W_]+``
runs, and the separators are ``#`` and ``@``.  For terms ``s != t``,
``s + sep + a`` and ``t + sep + b`` then compare as ``s + sep`` and
``t + sep`` do, because neither of those is a prefix of the other (that
would put ``sep`` inside a term); for ``s == t`` they compare as the
suffix strings ``a`` and ``b``.  Ranking the distinct terms by
``term + sep`` and the suffixes by ``str(suffix)`` thus orders the codes
by ``rank[term] * modulus + suffix_rank[suffix]`` exactly as Python orders
their key strings, which is the sorted-key order of
:func:`repro.blocking.base.build_blocks`.  The only strings built are the
kept groups' distinct terms, for that one sort.

The grouping already produces the flat CSR member layout, so the
collection is born from an :class:`~repro.graph.entity_index.EntityIndex`
whose keys are the kept codes (:class:`~repro.graph.entity_index.CodedKeys`,
formatted on read): purging and filtering select codes, and per-cluster
entropies are gathered by code.  No ``Block`` object is constructed
unless a consumer iterates the collection.

The output is bit-for-bit identical to the string-keyed dict loop kept in
``tests/_blocker_oracles.py``: same keys, same sorted-key block order, same
member frozensets, same CSR arrays (``tests/property/test_prop_corpus.py``
enforces this).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.entity_index import CodedKeys, EntityIndex
from repro.utils.arrays import sorted_unique


def packed_key_of(
    token_of: Callable[[int], str], modulus: int, separator: str
) -> Callable[[int], str]:
    """Decoder for keys packed as ``term_id * modulus + suffix_id``.

    The disambiguated blockers (schema-aware ``token#cluster``, standard
    ``token@group``) pack their two-part keys into one integer code; this
    is the single inverse both use, so packing and decoding cannot drift
    apart per blocker.
    """

    def key_of(code: int) -> str:
        return f"{token_of(code // modulus)}{separator}{code % modulus}"

    return key_of


def group_assignments(
    rows: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicate ``(row, code)`` assignments and group them by code.

    Returns ``(group_codes, starts, sizes, members)``: the distinct codes
    ascending, and for group *g* the member rows
    ``members[starts[g] : starts[g] + sizes[g]]``, sorted ascending.
    *rows* and *codes* are non-negative.  One sort of the packed
    ``code << row_bits | row`` key deduplicates and groups; codes too wide
    for that pack are first compacted to dense ranks.
    """
    if rows.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    row_bits = int(rows.max()).bit_length()
    distinct = None
    if int(codes.max()).bit_length() + row_bits > 63:
        distinct, codes = np.unique(codes, return_inverse=True)
    packed = codes << row_bits
    packed |= rows
    packed = sorted_unique(packed)
    key_part = packed >> row_bits
    members = packed & ((1 << row_bits) - 1)
    starts = np.flatnonzero(np.r_[True, key_part[1:] != key_part[:-1]])
    sizes = np.diff(np.r_[starts, key_part.size])
    group_codes = key_part[starts]
    if distinct is not None:
        group_codes = distinct[group_codes]
    return group_codes, starts, sizes, members


def _key_string_order(
    codes: np.ndarray,
    term_of: Callable[[int], str],
    modulus: int,
    separator: str,
) -> np.ndarray:
    """Positions of the distinct *codes* in their key strings' sorted order
    (the module docstring's lemma)."""
    terms = codes // modulus
    distinct = sorted_unique(terms)
    strings = [term_of(term) + separator for term in distinct.tolist()]
    rank = np.empty(distinct.size, dtype=np.int64)
    rank[sorted(range(len(strings)), key=strings.__getitem__)] = np.arange(
        distinct.size, dtype=np.int64
    )
    suffix_rank = np.empty(modulus, dtype=np.int64)
    suffix_rank[sorted(range(modulus), key=str)] = np.arange(
        modulus, dtype=np.int64
    )
    order_key = rank[np.searchsorted(distinct, terms)] * modulus
    order_key += suffix_rank[codes % modulus]
    return np.argsort(order_key)


def collection_from_assignments(
    rows: np.ndarray,
    codes: np.ndarray,
    term_of: Callable[[int], str],
    is_clean_clean: bool,
    offset2: int,
    *,
    modulus: int = 1,
    separator: str = "",
    max_block_size: int | None = None,
) -> BlockCollection:
    """Assemble a :class:`BlockCollection` from ``(profile, key-code)`` pairs.

    The exact array analogue of
    :func:`repro.blocking.base.build_blocks`: assignments are
    deduplicated, no-comparison groups (single-member dirty blocks,
    one-sided clean-clean blocks) are dropped, and the rest are emitted in
    the sorted order of their key strings, which *term_of*, *modulus* and
    *separator* define (module docstring; no *separator* means
    ``modulus == 1``).
    *max_block_size* additionally drops oversized groups (the
    suffix-array purge).  The collection is index-born: no ``Block`` and
    no key string exists until someone reads it.
    """
    group_codes, starts, sizes, members = group_assignments(rows, codes)

    if is_clean_clean:
        left_sizes = (
            np.add.reduceat((members < offset2).astype(np.int64), starts)
            if group_codes.size
            else np.zeros(0, dtype=np.int64)
        )
        valid = (left_sizes > 0) & (sizes > left_sizes)
    else:
        left_sizes = sizes
        valid = sizes >= 2
    if max_block_size is not None:
        valid &= sizes <= max_block_size

    keep = np.flatnonzero(valid)
    kept_codes = group_codes[keep]
    order = _key_string_order(kept_codes, term_of, modulus, separator)

    # Gather the surviving groups' member runs in sorted-key order.
    groups = keep[order]
    sizes_out = sizes[groups]
    block_ptr = np.zeros(groups.size + 1, dtype=np.int64)
    np.cumsum(sizes_out, out=block_ptr[1:])
    gather = np.repeat(starts[groups] - block_ptr[:-1], sizes_out) + np.arange(
        block_ptr[-1], dtype=np.int64
    )
    decode = packed_key_of(term_of, modulus, separator) if separator else term_of
    return BlockCollection.from_index(
        EntityIndex.from_arrays(
            is_clean_clean,
            CodedKeys(kept_codes[order], decode, modulus, separator),
            sizes_out,
            left_sizes[groups],
            members[gather],
        )
    )
