"""Array-side block assembly over the interned corpus.

Every token-derived blocker reduces to the same shape of work: produce
``(profile, key)`` assignments, deduplicate them, group by key, drop the
groups that imply no comparison, and emit the blocks in sorted-key order.
The kernels here run the whole reduction in numpy over interned ids and
materialize strings exactly once per *distinct* key, at the API boundary.

Because the grouping already produces the flat CSR member layout, the
:class:`~repro.graph.entity_index.EntityIndex` is built directly from the
same arrays (via :meth:`EntityIndex.from_arrays`) and the collection is
born from it (:meth:`BlockCollection.from_index`) — no ``Block`` object is
constructed unless a consumer iterates the collection, and the vectorized
meta-blocking backend never lowers anything.

The output is bit-for-bit identical to the string-keyed dict loop kept in
``tests/_blocker_oracles.py``: same keys, same sorted-key block order, same
member frozensets, same CSR arrays (``tests/property/test_prop_corpus.py``
enforces this).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.blocking.base import BlockCollection
from repro.graph.entity_index import EntityIndex
from repro.utils.arrays import sorted_unique

#: Bits reserved for the row (profile) part of a packed (key, row) id.
_ROW_SHIFT = np.int64(31)
_ROW_MASK = np.int64((1 << 31) - 1)


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
    """
    if rows.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    # Compact arbitrary int64 key codes to dense indices so a single
    # (key, row) int64 pack both deduplicates and key-major sorts.
    group_codes, key_idx = np.unique(codes, return_inverse=True)
    packed = sorted_unique((key_idx.astype(np.int64) << _ROW_SHIFT) | rows)
    key_part = packed >> _ROW_SHIFT
    members = packed & _ROW_MASK
    starts = np.flatnonzero(np.r_[True, key_part[1:] != key_part[:-1]])
    sizes = np.diff(np.r_[starts, key_part.size])
    return group_codes, starts.astype(np.int64), sizes, members


def collection_from_assignments(
    rows: np.ndarray,
    codes: np.ndarray,
    key_of: Callable[[int], str],
    is_clean_clean: bool,
    offset2: int,
    max_block_size: int | None = None,
) -> BlockCollection:
    """Assemble a :class:`BlockCollection` from ``(profile, key-code)`` pairs.

    The exact array analogue of
    :func:`repro.blocking.base.build_blocks`: assignments are
    deduplicated, no-comparison groups (single-member dirty blocks,
    one-sided clean-clean blocks) are dropped, keys are materialized via
    *key_of* and emitted in sorted order.  *max_block_size* additionally
    drops oversized groups (the suffix-array purge).  The collection is
    index-born: no ``Block`` exists until someone iterates it.
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
    keys = [key_of(code) for code in group_codes[keep].tolist()]
    order = sorted(range(len(keys)), key=keys.__getitem__)

    # Gather the surviving groups' member runs in sorted-key order.
    groups = keep[order]
    sizes_out = sizes[groups]
    block_ptr = np.zeros(groups.size + 1, dtype=np.int64)
    np.cumsum(sizes_out, out=block_ptr[1:])
    gather = np.repeat(starts[groups] - block_ptr[:-1], sizes_out) + np.arange(
        block_ptr[-1], dtype=np.int64
    )
    return BlockCollection.from_index(
        EntityIndex.from_arrays(
            is_clean_clean,
            tuple([keys[position] for position in order]),
            sizes_out,
            left_sizes[groups],
            members[gather],
        )
    )
