"""MinHash signatures (Section 3.1.2).

Each attribute profile (a token set, i.e. a binary column of the
attribute-token matrix) is compressed to a signature of ``n`` minhash
values.  The probability that two columns agree on one minhash equals their
Jaccard similarity [Broder 1997], so signatures preserve exactly the
similarity LMI measures.

Each distinct token is hashed once to a 32-bit id; the hash functions are
``h(x) = a*x + b`` over Z_2^64 with odd multipliers, and a signature column
is one ``np.minimum.reduceat`` over the row-sorted ``(attribute, token id)``
memberships — the attribute x token index LMI reads.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.utils.rng import make_rng

_UINT64_MAX = np.uint64(np.iinfo(np.uint64).max)


def _token_id(token: str) -> int:
    """A stable 32-bit integer id for *token*, independent of call order
    and of ``PYTHONHASHSEED`` (blake2b content hash).

    The residual id-collision probability is negligible for LSH candidate
    generation.
    """
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def hash_tokens(codes: np.ndarray, token_of: Callable[[int], str]) -> np.ndarray:
    """:func:`_token_id` of ``token_of(code)`` for every entry of *codes*,
    each distinct code hashed once."""
    distinct, inverse = np.unique(codes, return_inverse=True)
    table = np.fromiter(
        (_token_id(token_of(code)) for code in distinct.tolist()),
        dtype=np.uint64,
        count=distinct.size,
    )
    return table[inverse.reshape(-1)]


class MinHasher:
    """Deterministic MinHash signature generator.

    Parameters
    ----------
    num_hashes:
        Signature length ``n``; must be compatible with the banding scheme
        (``n = bands * rows``).
    seed:
        Seed for the hash-function coefficients.
    """

    def __init__(self, num_hashes: int = 150, seed: int | None = None) -> None:
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be positive, got {num_hashes}")
        self.num_hashes = num_hashes
        rng = make_rng(seed)
        # Multiply-add over Z_2^64 with random ODD multipliers: the uint64
        # wrap-around is the mixing step (multiply-shift hashing), giving
        # near-uniform rank order over the 32-bit token-id space.
        self._a = rng.integers(0, 1 << 63, size=num_hashes, dtype=np.uint64)
        self._a = self._a * np.uint64(2) + np.uint64(1)
        self._b = rng.integers(0, 1 << 63, size=num_hashes, dtype=np.uint64)

    def signatures(self, token_sets: Sequence[Iterable[str]]) -> np.ndarray:
        """Signature matrix of shape ``(len(token_sets), num_hashes)``.

        Token identity is by content (blake2b of the string), so the same
        token hashes identically across sets, across calls, and across
        processes — signature agreement estimates Jaccard similarity, and
        signatures of the same set are reproducible regardless of which
        other sets share the call.  Each distinct string is hashed once and
        the sets go to :meth:`row_signatures` as memberships.
        """
        sets = [list(dict.fromkeys(tokens)) for tokens in token_sets]
        code_of: dict[str, int] = {}
        codes = [code_of.setdefault(t, len(code_of)) for s in sets for t in s]
        sizes = [len(s) for s in sets]
        rows = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
        hashes = hash_tokens(
            np.asarray(codes, dtype=np.int64), list(code_of).__getitem__
        )
        return self.row_signatures(rows, hashes, len(sets))

    def row_signatures(
        self, rows: np.ndarray, hashes: np.ndarray, num_rows: int
    ) -> np.ndarray:
        """Signatures of ``num_rows`` sets given as ``(row, token hash)``
        memberships.

        Per hash function, the minimum of ``a * h + b`` (mod 2^64) over each
        row's run of the row-sorted memberships.  A row with no token gets
        its own sentinel, ``2^64 - 1 - row`` in every column, so it shares
        no band with any other row (an empty attribute has Jaccard 0 with
        every other attribute).
        """
        order = np.argsort(rows, kind="stable")
        rows, hashes = rows[order], np.asarray(hashes, dtype=np.uint64)[order]
        out = np.empty((self.num_hashes, num_rows), dtype=np.uint64)
        out[:] = _UINT64_MAX - np.arange(num_rows, dtype=np.uint64)
        if rows.size:
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            present = rows[starts]
            for k in range(self.num_hashes):
                out[k, present] = np.minimum.reduceat(
                    self._a[k] * hashes + self._b[k], starts
                )
        return out.T.copy()

    def estimate_jaccard(self, sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Fraction of agreeing minhashes — an unbiased Jaccard estimate."""
        if sig_a.shape != sig_b.shape:
            raise ValueError("signature shapes differ")
        return float(np.mean(sig_a == sig_b))
