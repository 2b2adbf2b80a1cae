"""Integration: the batch run never builds or parses a block key string.

The interned blockers keep every block key as an integer code from
grouping through purging, filtering and entropy weighting; a key becomes
a string only when someone reads it.  A full ``Blast().run`` followed by
``evaluate_blocks`` must therefore call neither ``split_key`` (the key
string parser) nor the ``packed_key_of`` decoder (the key string
formatter), on clean-clean and on dirty data.  Reading the keys afterwards
still yields exactly the string oracle's keys.
"""

import sys

import pytest

from _block_oracles import oracle_block_filtering, oracle_block_purging
from _blocker_oracles import string_blocks
from repro import Blast, evaluate_blocks, load_clean_clean, load_dirty
from repro.blocking import _interned, schema_aware
from repro.blocking.schema_aware import LooselySchemaAwareBlocking


class _Calls:
    """Counts the key parses and key decodes made while it is installed."""

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.split_key = 0
        self.decoded = 0
        split_key = schema_aware.split_key
        packed_key_of = _interned.packed_key_of

        def counting_split_key(key):
            self.split_key += 1
            return split_key(key)

        def counting_packed_key_of(*args):
            decode = packed_key_of(*args)

            def counting_decode(code):
                self.decoded += 1
                return decode(code)

            return counting_decode

        # Patch every module that holds its own reference to either one.
        for name, module in list(sys.modules.items()):
            if not name.startswith("repro"):
                continue
            if getattr(module, "split_key", None) is split_key:
                monkeypatch.setattr(module, "split_key", counting_split_key)
            if getattr(module, "packed_key_of", None) is packed_key_of:
                monkeypatch.setattr(
                    module, "packed_key_of", counting_packed_key_of
                )


@pytest.mark.parametrize(
    "load",
    [
        lambda: load_clean_clean("ar1", scale=0.3, seed=11),
        lambda: load_dirty("cora", scale=0.3, seed=11),
    ],
    ids=["clean", "dirty"],
)
def test_batch_run_formats_and_parses_no_key(load, monkeypatch):
    dataset = load()
    calls = _Calls(monkeypatch)
    result = Blast().run(dataset)
    evaluate_blocks(result.blocks, dataset)
    assert calls.split_key == 0
    assert calls.decoded == 0

    # Keys still read as the string path's, block for block.
    config = Blast().config
    oracle = oracle_block_filtering(
        oracle_block_purging(
            string_blocks(
                LooselySchemaAwareBlocking(
                    result.partitioning,
                    min_token_length=config.min_token_length,
                ),
                dataset,
            ),
            dataset.num_profiles,
            max_profile_ratio=config.purging_ratio,
        ),
        ratio=config.filtering_ratio,
    )
    keys = result.initial_blocks.entity_index.keys
    assert len(keys) == len(oracle)
    assert [keys[i] for i in range(len(keys))] == [b.key for b in oracle]
    assert calls.decoded == len(oracle)
