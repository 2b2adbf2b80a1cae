"""Value transformation functions (the paper's tau, Section 2.1).

The paper treats each attribute value through a *value transformation
function* tau that maps raw strings to a set of terms.  Token Blocking uses
whitespace/punctuation tokenization; the q-grams blocking baseline uses
character q-grams.  All blocking keys flow through :func:`normalize` first so
that case and punctuation differences never split a block.
"""

from __future__ import annotations

import re
import unicodedata
from collections.abc import Iterable, Iterator, Sequence

_TOKEN_RE = re.compile(r"[\W_]+", re.UNICODE)

#: Between values in ``tokenize_many`` output; it is ``\W``, so never inside a token.
VALUE_BOUNDARY = "\x00"
_BOUNDARY_JOIN = f" {VALUE_BOUNDARY} "
_TERM_RE = re.compile(rf"[^\W_]+|{VALUE_BOUNDARY}", re.UNICODE)
#: ``normalize`` on ASCII as a byte table: alphanumerics lower-cased, the
#: boundary kept, everything else (the ASCII part of ``[\W_]``) a space.
_ASCII_TABLE = bytes(
    ord(chr(b).lower()) if chr(b).isalnum() or chr(b) == VALUE_BOUNDARY else 32
    for b in range(128)
).ljust(256)

#: Tokens shorter than this carry almost no discriminating power and are
#: dropped by default (single characters, stray punctuation remnants).
MIN_TOKEN_LENGTH = 2


def normalize(value: str) -> str:
    """NFKC-fold, lower-case, and collapse non-alphanumeric runs to spaces.

    Unicode NFKC compatibility normalization runs *before* casefolding so
    visually-identical spellings — full-width digits, ligatures, circled
    letters — land on the same blocking key instead of splitting a block.

    >>> normalize("Abram St. 30, NY ")
    'abram st 30 ny'
    >>> normalize("３０ Abram")  # full-width "30"
    '30 abram'
    """
    return _TOKEN_RE.sub(
        " ", unicodedata.normalize("NFKC", value).casefold()
    ).strip()


def tokenize(value: str, min_length: int = MIN_TOKEN_LENGTH) -> list[str]:
    """Split *value* into normalized tokens of at least *min_length* chars.

    This is the paper's default tau: plain tokenization.  Duplicate tokens
    within one value are preserved (entropy extraction needs frequencies);
    callers that need a set can wrap the result in ``set()``.

    >>> tokenize("Abram St. 30 NY")
    ['abram', 'st', '30', 'ny']
    """
    return [t for t in normalize(value).split() if len(t) >= min_length]


def tokenize_many(values: Sequence[str]) -> list[str]:
    """``tokenize(v, min_length=1)`` of every value in one normalization pass.

    Returns one flat list: each value's tokens in order, with
    :data:`VALUE_BOUNDARY` between consecutive values.  The values are
    joined on the boundary and normalized as one text — sound because space
    and the boundary are NFKC starters that compose with nothing and
    ``casefold`` is context-free.  All-ASCII text, where NFKC is the
    identity and ``casefold`` is ``lower``, takes a byte-table shortcut.

    >>> tokenize_many(["Abram St.", "", "３０ NY"])
    ['abram', 'st', '\\x00', '\\x00', '30', 'ny']
    """
    if not values:
        return []
    text = _BOUNDARY_JOIN.join(values)
    if text.count(VALUE_BOUNDARY) != len(values) - 1:
        # A raw boundary character inside a value is just another ``\W``.
        text = _BOUNDARY_JOIN.join([v.replace(VALUE_BOUNDARY, " ") for v in values])
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TABLE).decode("ascii").split()
    return _TERM_RE.findall(unicodedata.normalize("NFKC", text).casefold())


def token_set(values: Iterable[str], min_length: int = MIN_TOKEN_LENGTH) -> set[str]:
    """Union of tokens over several raw values."""
    out: set[str] = set()
    for value in values:
        out.update(tokenize(value, min_length))
    return out


def qgrams(value: str, q: int = 3) -> list[str]:
    """Character q-grams of the normalized *value* (q-grams blocking [9]).

    Values shorter than *q* yield the whole normalized string, so short but
    meaningful values (e.g. ``"ny"``) still produce one blocking key.

    >>> qgrams("abcd", q=3)
    ['abc', 'bcd']
    """
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    text = normalize(value).replace(" ", "")
    if not text:
        return []
    if len(text) <= q:
        return [text]
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def suffixes(value: str, min_length: int = 4) -> Iterator[str]:
    """All suffixes of each token of *value* with at least *min_length* chars.

    Used by the suffix-array blocking baseline [7]: a token contributes every
    sufficiently long suffix as a blocking key, which tolerates prefix typos.
    """
    for token in tokenize(value, min_length=1):
        if len(token) < min_length:
            if token:
                yield token
            continue
        for start in range(len(token) - min_length + 1):
            yield token[start:]
