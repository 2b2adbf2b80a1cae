"""String-keyed blocking and schema extraction, kept as the test oracle.

Every blocker in ``repro.blocking`` derives its keys from the interned
corpus arrays.  Before that, each one walked the profiles, re-tokenized
their values and collected a ``key -> member set`` dict of strings.  That
loop lives on here, written once in :func:`keyed_blocks`; each blocker
contributes only its key function.  :func:`string_blocks` and
:func:`string_schema` define the output the corpus paths must reproduce
bit for bit: keys, block order, members, CSR arrays and partitionings.

Lives beside the root ``conftest.py`` so every suite can import it.
"""

from __future__ import annotations

from collections.abc import Callable

from _lsh_oracles import lsh_candidate_refs
from _schema_oracles import (
    ac_oracle,
    build_attribute_profiles,
    lmi_oracle,
    string_loose_schema_entropies,
)

from repro.blocking.base import BlockCollection, build_blocks
from repro.blocking.canopy import CanopyBlocking
from repro.blocking.qgrams import QGramsBlocking
from repro.blocking.schema_aware import (
    LooselySchemaAwareBlocking,
    profile_blocking_keys,
)
from repro.blocking.standard import StandardBlocking
from repro.blocking.suffix_array import SuffixArrayBlocking
from repro.blocking.token import TokenBlocking
from repro.core.config import BlastConfig
from repro.data import EntityProfile, ERDataset
from repro.schema.partition import AttributePartitioning
from repro.schema.representation import (
    TfIdfAttributeModel,
    tfidf_attribute_match_induction,
)
from repro.utils.tokenize import suffixes, tokenize

KeysOf = Callable[[EntityProfile, int], set[str]]


def keyed_blocks(dataset: ERDataset, keys_of: KeysOf) -> BlockCollection:
    """``build_blocks`` over the string keys ``keys_of(profile, source)``."""
    keyed: dict[str, tuple[set[int], set[int]]] = {}
    for gidx, profile in dataset.iter_profiles():
        source = dataset.source_of(gidx)
        for key in keys_of(profile, source):
            keyed.setdefault(key, (set(), set()))[source].add(gidx)
    if dataset.is_clean_clean:
        return build_blocks(keyed, is_clean_clean=True)
    return build_blocks(
        {key: left for key, (left, _) in keyed.items()}, is_clean_clean=False
    )


def blocker_keys(blocker) -> KeysOf:
    """The string key function *blocker*'s corpus path must reproduce."""
    if isinstance(blocker, LooselySchemaAwareBlocking):
        return lambda profile, source: profile_blocking_keys(
            profile,
            source,
            blocker.partitioning,
            min_token_length=blocker.min_token_length,
            transformation=blocker.transformation,
            q=blocker.q,
        )
    if isinstance(blocker, TokenBlocking):
        return lambda profile, source: profile_blocking_keys(
            profile, source, min_token_length=blocker.min_token_length
        )
    if isinstance(blocker, QGramsBlocking):
        return lambda profile, source: profile_blocking_keys(
            profile, source, transformation="qgram", q=blocker.q
        )
    if isinstance(blocker, SuffixArrayBlocking):
        return lambda profile, _: {
            suffix
            for _, value in profile.iter_pairs()
            for suffix in suffixes(value, blocker.min_suffix_length)
        }
    if isinstance(blocker, StandardBlocking) and blocker.key_mode == "token":
        groups = sorted(blocker.alignment.items())
        return lambda profile, source: {
            f"{token}@{group}"
            for group, names in enumerate(groups)
            for value in profile.values(names[source])
            for token in tokenize(value)
        }
    raise TypeError(f"no string oracle for {blocker!r}")


def string_blocks(blocker, dataset: ERDataset) -> BlockCollection:
    """What ``blocker.build(dataset)`` returns, derived from strings."""
    if isinstance(blocker, CanopyBlocking):
        return blocker.cluster(
            {gidx: profile.tokens() for gidx, profile in dataset.iter_profiles()},
            dataset,
        )
    blocks = keyed_blocks(dataset, blocker_keys(blocker))
    if isinstance(blocker, SuffixArrayBlocking):
        return BlockCollection(
            [block for block in blocks if block.size <= blocker.max_block_size],
            blocks.is_clean_clean,
        )
    return blocks


def string_schema(
    dataset: ERDataset, config: BlastConfig | None = None
) -> AttributePartitioning:
    """``SchemaExtraction(config).extract(dataset)`` on string token sets:
    string profiles, the string LSH step, the pair-by-pair LMI / AC and
    ``Counter`` entropies."""
    config = config or BlastConfig()
    floor = config.min_token_length
    collection1, collection2 = dataset.collection1, dataset.collection2
    if config.representation == "tfidf":
        partitioning = tfidf_attribute_match_induction(
            TfIdfAttributeModel(collection1, collection2, min_token_length=floor),
            method=config.induction,
            alpha=config.alpha,
            glue_cluster=config.glue_cluster,
        )
    else:
        profiles1 = build_attribute_profiles(collection1, 0, floor)
        profiles2 = (
            build_attribute_profiles(collection2, 1, floor)
            if collection2 is not None
            else None
        )
        candidates = (
            lsh_candidate_refs(
                profiles1,
                profiles2,
                threshold=config.lsh_threshold,
                num_hashes=config.lsh_num_hashes,
                seed=config.seed,
            )
            if config.use_lsh
            else None
        )
        if config.induction == "lmi":
            partitioning = lmi_oracle(
                profiles1,
                profiles2,
                candidates,
                alpha=config.alpha,
                glue_cluster=config.glue_cluster,
            )
        else:
            partitioning = ac_oracle(
                profiles1, profiles2, candidates, glue_cluster=config.glue_cluster
            )
    return string_loose_schema_entropies(
        partitioning, collection1, collection2, min_token_length=floor
    )
