"""Attribute profiles: the representation model of Section 2.1.

Each attribute ``a`` is represented by the set of terms its values produce
under the value transformation function tau (tokenization, for LMI) with
binary term presence — i.e. simply the *set* of tokens.  This is the vector
``T_a`` of the paper restricted to its non-zero coordinates, which is the
natural sparse encoding for Jaccard/Dice/cosine-over-binary similarity and
for MinHashing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.schema.partition import AttributeRef


@dataclass(frozen=True, slots=True)
class AttributeProfile:
    """The token-set profile of one attribute of one source."""

    source: int
    name: str
    tokens: frozenset[str]

    @property
    def ref(self) -> AttributeRef:
        """The ``(source, name)`` reference used by partitionings."""
        return (self.source, self.name)

    def __len__(self) -> int:
        return len(self.tokens)
