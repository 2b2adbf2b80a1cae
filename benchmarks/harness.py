"""Shared machinery for the table/figure benches.

The per-experiment benches (one file per paper table/figure) compose these
helpers: cached dataset loading, the T/L block-collection workflow of
Section 4.1 (expressed as stage pipelines), traditional meta-blocking
averaged over the five weighting schemes, and result formatting/writing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.blocking.base import BlockCollection
from repro.core import Blast, BlastConfig, prepare_blocks
from repro.data.dataset import ERDataset
from repro.datasets import load_clean_clean, load_dirty
from repro.graph import MetaBlocker, WeightingScheme
from repro.graph.pruning import PruningScheme
from repro.metrics import BlockingQuality, evaluate_blocks
from repro.schema.partition import AttributePartitioning
from repro.utils.timer import Timer

RESULTS_DIR = Path(__file__).parent / "results"
SEED = 42


def write_result(name: str, text: str) -> None:
    """Persist a bench's table under results/ and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    print(f"\n{text}")


@lru_cache(maxsize=None)
def clean_dataset(name: str, scale: float = 1.0) -> ERDataset:
    return load_clean_clean(name, scale=scale, seed=SEED)


@lru_cache(maxsize=None)
def dirty_dataset(name: str, scale: float = 1.0) -> ERDataset:
    return load_dirty(name, scale=scale, seed=SEED)


@lru_cache(maxsize=None)
def partitioning_of(name: str, scale: float = 1.0, dirty: bool = False
                    ) -> AttributePartitioning:
    """The LMI partitioning (with entropies) of a cached dataset."""
    dataset = dirty_dataset(name, scale) if dirty else clean_dataset(name, scale)
    return Blast().extract_loose_schema(dataset)


@lru_cache(maxsize=None)
def blocks_T(name: str, scale: float = 1.0, dirty: bool = False) -> BlockCollection:
    """Token Blocking + purging + filtering (the "T" rows).

    ``prepare_blocks`` is the T/L stage composition (token or schema-aware
    blocking -> purging -> filtering) run over a pre-seeded context.
    """
    dataset = dirty_dataset(name, scale) if dirty else clean_dataset(name, scale)
    return prepare_blocks(dataset)


@lru_cache(maxsize=None)
def blocks_L(name: str, scale: float = 1.0, dirty: bool = False) -> BlockCollection:
    """LMI-disambiguated Token Blocking + purging + filtering ("L" rows)."""
    dataset = dirty_dataset(name, scale) if dirty else clean_dataset(name, scale)
    return prepare_blocks(dataset, partitioning_of(name, scale, dirty))


@dataclass(frozen=True)
class BenchRow:
    """One row of a Table 4/5/7-style comparison."""

    label: str
    quality: BlockingQuality
    overhead: float

    def formatted(self) -> str:
        q = self.quality
        return (
            f"{self.label:>16} PC={q.pair_completeness:7.2%} "
            f"PQ={q.pair_quality:9.4%} F1={q.f1:6.3f} "
            f"to={self.overhead:6.2f}s ||B||={q.comparisons:10.3g}"
        )


def traditional_mb_row(
    label: str,
    collection: BlockCollection,
    dataset: ERDataset,
    pruning_factory,
    extra_overhead: float = 0.0,
) -> BenchRow:
    """Traditional meta-blocking averaged over the 5 weighting schemes [20].

    Each scheme runs meta-blocking on the collection; PC/PQ/F1/||B|| are
    averaged across schemes, as in the paper's tables.
    """
    with Timer() as timer:
        qualities: list[BlockingQuality] = []
        for scheme in WeightingScheme.traditional():
            meta = MetaBlocker(weighting=scheme, pruning=pruning_factory())
            qualities.append(evaluate_blocks(meta.run(collection), dataset))
    n = len(qualities)
    mean = BlockingQuality(
        pair_completeness=sum(q.pair_completeness for q in qualities) / n,
        pair_quality=sum(q.pair_quality for q in qualities) / n,
        detected_duplicates=round(sum(q.detected_duplicates for q in qualities) / n),
        total_duplicates=qualities[0].total_duplicates,
        comparisons=round(sum(q.comparisons for q in qualities) / n),
        num_blocks=round(sum(q.num_blocks for q in qualities) / n),
    )
    return BenchRow(label, mean, timer.elapsed / n + extra_overhead)


def chi_h_mb_row(
    label: str,
    collection: BlockCollection,
    dataset: ERDataset,
    pruning: PruningScheme,
    partitioning: AttributePartitioning,
    extra_overhead: float = 0.0,
) -> BenchRow:
    """Meta-blocking with BLAST's chi-squared x entropy weighting and an
    arbitrary pruning scheme (the "Blast L chi2h" CNP rows)."""
    from repro.blocking.schema_aware import make_key_entropy

    with Timer() as timer:
        meta = MetaBlocker(
            weighting=WeightingScheme.CHI_H,
            pruning=pruning,
            key_entropy=make_key_entropy(partitioning),
        )
        out = meta.run(collection)
    return BenchRow(label, evaluate_blocks(out, dataset), timer.elapsed + extra_overhead)


def blast_row(
    label: str, dataset: ERDataset, config: BlastConfig | None = None
) -> BenchRow:
    """The full BLAST pipeline as one row."""
    result = Blast(config).run(dataset)
    return BenchRow(label, evaluate_blocks(result.blocks, dataset),
                    result.overhead_seconds)


def supervised_row(
    label: str, collection: BlockCollection, dataset: ERDataset
) -> BenchRow:
    """The supervised meta-blocking comparator."""
    from repro.supervised import SupervisedMetaBlocking

    with Timer() as timer:
        out = SupervisedMetaBlocking(seed=SEED).run(collection, dataset)
    return BenchRow(label, evaluate_blocks(out, dataset), timer.elapsed)


def lmi_overhead(name: str, scale: float = 1.0, dirty: bool = False) -> float:
    """Wall-clock of the loose-schema-extraction phase (for "L" rows' to)."""
    dataset = dirty_dataset(name, scale) if dirty else clean_dataset(name, scale)
    with Timer() as timer:
        Blast().extract_loose_schema(dataset)
    return timer.elapsed
