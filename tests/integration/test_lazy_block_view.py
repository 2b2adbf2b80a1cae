"""Integration: the array paths never build a ``Block``.

The interned blocker, Block Purging and Block Filtering hand each other
index-born collections; the vectorized and parallel backends read the
CSR arrays, and so does supervised meta-blocking.  Their retained edges
stay one ``(E, 2)`` array that ``blocks_from_edges`` wraps as an index,
and PC/PQ and the distinct pairs read that index.  So a default run,
its evaluation and its pair stream construct no ``Block`` at all; the
output's blocks, like ``initial_blocks``, appear only when someone
iterates the collection.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro import (
    Blast,
    BlastConfig,
    build_pipeline,
    load_clean_clean,
    load_dirty,
    prepare_blocks,
)
from repro.blocking.base import Block
from repro.metrics import evaluate_blocks
from repro.supervised import SupervisedMetaBlocking


@pytest.fixture(scope="module", params=["clean-clean", "dirty"])
def dataset(request):
    if request.param == "dirty":
        return load_dirty("census", scale=0.3, seed=5)
    return load_clean_clean("ar1", scale=0.3, seed=5)


@pytest.fixture(scope="module")
def reference(dataset):
    return build_pipeline(BlastConfig(backend="python")).run(dataset)


@contextmanager
def _counting_blocks():
    """Yield a list that collects the key of every ``Block`` built."""
    built: list[str] = []
    init = Block.__init__

    def spy(self, key, *args, **kwargs):
        built.append(key)
        init(self, key, *args, **kwargs)

    with mock.patch.object(Block, "__init__", spy):
        yield built


def _run_counting_blocks(config, dataset):
    """Run the pipeline; return the result and every ``Block`` key built."""
    with _counting_blocks() as built:
        result = build_pipeline(config).run(dataset)
    return result, built


@pytest.mark.parametrize(
    "config",
    [
        BlastConfig(),
        BlastConfig(backend="parallel", workers=2),
    ],
    ids=["vectorized", "parallel"],
)
def test_array_backends_build_output_blocks_only(config, dataset, reference):
    result, built = _run_counting_blocks(config, dataset)
    assert len(result.initial_blocks) == len(reference.initial_blocks) > 0
    # No Block for the blocker's, the purged, the filtered or the
    # retained collection; iterating the output builds exactly its own.
    assert built == []
    with _counting_blocks() as built:
        keys = [block.key for block in result.blocks]
    assert built == keys and all(key.startswith("e:") for key in keys)
    # The view materialises on demand, to the python backend's input.
    assert list(result.initial_blocks) == list(reference.initial_blocks)
    assert list(result.blocks) == list(reference.blocks)


def test_python_backend_materialises_the_filtered_collection_only(dataset):
    result, built = _run_counting_blocks(BlastConfig(backend="python"), dataset)
    assert built == [block.key for block in result.initial_blocks]
    assert len(result.blocks) > 0


def test_supervised_builds_output_blocks_only(dataset):
    blocks = prepare_blocks(dataset)
    with _counting_blocks() as built:
        out = SupervisedMetaBlocking(seed=7).run(blocks, dataset)
    assert len(out) > 0 and built == []
    with _counting_blocks() as built:
        keys = [block.key for block in out]
    assert built == keys and all(key.startswith("e:") for key in keys)


def test_run_evaluate_and_pairs_build_no_block(dataset):
    with _counting_blocks() as built:
        result = Blast().run(dataset)
        quality = evaluate_blocks(result.blocks, dataset)
        pairs = list(result.blocks.iter_distinct_pairs())
    assert built == []
    assert quality.comparisons == len(pairs) == len(result.blocks) > 0
