"""Schema-based Standard Blocking [Christen, TKDE 2012].

The classic comparator of Section 4.1 ("Blast vs. Schema-based Blocking"):
blocking keys are derived from *aligned* attributes, so it needs a schema
mapping between the two sources — exactly the manual effort BLAST's loose
attribute-match induction replaces.

Two key modes are provided:

* ``"value"`` — the whole normalized attribute value is the key (classic
  Standard Blocking);
* ``"token"`` — each token of the value is a key, disambiguated by the
  aligned attribute group.  Footnote 10 of the paper notes this variant is
  Token Blocking exploiting the schema mapping, and it is the one that makes
  Standard Blocking comparable with (and, on fully mappable data, identical
  to) BLAST's loosely schema-aware blocking.

Token keys are derived from the dataset's interned corpus; whole-value keys
have no token-level form there, so ``"value"`` mode walks the profiles'
strings (its only path).  The string-keyed reference of ``"token"`` mode
lives in ``tests/_blocker_oracles.py``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.blocking._interned import collection_from_assignments
from repro.blocking.base import BlockCollection, build_blocks
from repro.data.dataset import ERDataset
from repro.data.profile import EntityProfile
from repro.utils.tokenize import MIN_TOKEN_LENGTH, normalize


class StandardBlocking:
    """Blocking on manually aligned attributes.

    Parameters
    ----------
    alignment:
        For clean-clean ER, a mapping ``attribute_in_E1 -> attribute_in_E2``.
        For dirty ER, pass the attributes to block on as a mapping of each
        attribute name to itself (or use :meth:`for_dirty`).
    key_mode:
        ``"value"`` or ``"token"`` (see module docstring).
    """

    def __init__(
        self, alignment: Mapping[str, str], key_mode: str = "value"
    ) -> None:
        if key_mode not in ("value", "token"):
            raise ValueError(f"unknown key_mode {key_mode!r}")
        if not alignment:
            raise ValueError("alignment must map at least one attribute")
        self.alignment = dict(alignment)
        self.key_mode = key_mode

    @classmethod
    def for_dirty(
        cls, attributes: Sequence[str], key_mode: str = "value"
    ) -> "StandardBlocking":
        """Convenience constructor for single-source (dirty) blocking."""
        return cls({name: name for name in attributes}, key_mode=key_mode)

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Index *dataset* on the aligned attributes."""
        if self.key_mode == "token":
            return self._build_tokens(dataset)
        # Whole-value keys have no token-level corpus form: walk the strings.
        keyed: dict[str, tuple[set[int], set[int]]] = {}
        for gidx, profile in dataset.iter_profiles():
            side = dataset.source_of(gidx)
            for key in self._value_keys(profile, side):
                keyed.setdefault(key, (set(), set()))[side].add(gidx)
        if dataset.is_clean_clean:
            return build_blocks(keyed, is_clean_clean=True)
        return build_blocks(
            {key: left for key, (left, _) in keyed.items()}, is_clean_clean=False
        )

    def _build_tokens(self, dataset: ERDataset) -> BlockCollection:
        """Token-mode keys (``token@group``) from the interned corpus.

        Groups are walked one by one (alignments are tiny) because two
        alignment entries may legally share an attribute name, making the
        attribute -> group relation a multimap.
        """
        corpus = dataset.corpus
        lengths_ok = corpus.token_lengths[corpus.token_ids] >= MIN_TOKEN_LENGTH
        groups = sorted(self.alignment.items())
        num_groups = np.int64(len(groups))
        row_chunks: list[np.ndarray] = []
        code_chunks: list[np.ndarray] = []
        for group, (attr1, attr2) in enumerate(groups):
            wanted = {corpus.attr_id_of(0, attr1), corpus.attr_id_of(1, attr2)}
            wanted.discard(None)
            if not wanted:
                continue
            mask = np.isin(
                corpus.attr_ids, np.fromiter(sorted(wanted), dtype=np.int32)
            )
            mask &= lengths_ok
            row_chunks.append(corpus.occurrence_rows[mask])
            code_chunks.append(
                corpus.token_ids[mask].astype(np.int64) * num_groups + group
            )
        rows = (
            np.concatenate(row_chunks)
            if row_chunks
            else np.zeros(0, dtype=np.int64)
        )
        codes = (
            np.concatenate(code_chunks)
            if code_chunks
            else np.zeros(0, dtype=np.int64)
        )
        return collection_from_assignments(
            rows,
            codes,
            term_of=corpus.dictionary.token_of,
            is_clean_clean=dataset.is_clean_clean,
            offset2=corpus.offset2,
            modulus=int(num_groups),
            separator="@",
        )

    def _value_keys(self, profile: EntityProfile, side: int) -> set[str]:
        keys: set[str] = set()
        for group, names in enumerate(sorted(self.alignment.items())):
            for value in profile.values(names[side]):
                normalized = normalize(value)
                if normalized:
                    keys.add(f"{normalized}@{group}")
        return keys
