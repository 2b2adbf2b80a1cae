"""Integration: a default run tokenizes in batches and nowhere else.

``InternedCorpus.build`` hands the values to ``tokenize_many`` a bounded
batch at a time, and every later layer reads the interned arrays — so a
default pipeline run makes ``ceil(values / batch)`` batch calls and not
one per-value ``tokenize`` call.  A clock-free guard against the
per-occurrence loop (or a per-layer re-tokenization) coming back.
"""

import math
import sys

import pytest

from repro import BlastConfig, build_pipeline, load_clean_clean, load_dirty
from repro.data import corpus as corpus_module
from repro.utils.tokenize import tokenize, tokenize_many


@pytest.fixture(params=["clean-clean", "dirty"])
def dataset(request):
    if request.param == "dirty":
        return load_dirty("census", scale=0.3, seed=5)
    return load_clean_clean("ar1", scale=0.3, seed=5)


def _spy_everywhere(monkeypatch, original):
    """Replace every ``repro`` module's binding of *original* by a counting spy."""
    calls: list[int] = []

    def spy(values, *args, **kwargs):
        calls.append(len(values))
        return original(values, *args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attribute, spy)
    return calls


@pytest.mark.parametrize("batch_values", [100, corpus_module._BATCH_VALUES])
def test_default_run_tokenizes_in_batches_only(monkeypatch, dataset, batch_values):
    monkeypatch.setattr(corpus_module, "_BATCH_VALUES", batch_values)
    per_value = _spy_everywhere(monkeypatch, tokenize)
    batches = _spy_everywhere(monkeypatch, tokenize_many)
    result = build_pipeline(BlastConfig()).run(dataset)
    assert len(result.blocks) > 0
    num_values = sum(len(profile) for _, profile in dataset.iter_profiles())
    assert per_value == []
    assert len(batches) == math.ceil(num_values / batch_values)
    assert sum(batches) == num_values and max(batches) <= batch_values
