"""The five clean-clean benchmark configurations of Table 2.

Each configuration synthesizes the *structure* of the corresponding
real-world pair — relative sizes, attribute counts, mappability, noise
profile — at a laptop-friendly default scale (the paper-scale parameters
are recorded in :data:`PAPER_SCALE` for reference; pass ``scale`` to grow a
dataset toward them).

==========  ======================  ============================  =========
dataset     paper sources           schema relationship           default
==========  ======================  ============================  =========
``ar1``     DBLP / ACM              fully mappable, 4-4 attrs     650 x 580
``ar2``     DBLP / Google Scholar   fully mappable, 4-4, noisy    400 x 4800
``prd``     Abt / Buy               fully mappable, 4-4, noisy    300 x 290
``mov``     IMDB / DBpedia          partially mappable, 4-7       1400 x 1150
``dbp``     DBpedia 2007 / 2009     partially mappable, wide      1500 x 2500
==========  ======================  ============================  =========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.dataset import ERDataset
from repro.datasets import samplers as s
from repro.datasets.generator import (
    CLEAN,
    NOISY,
    FieldSpec,
    NoiseModel,
    SourceSchema,
    make_clean_clean_dataset,
)
from repro.datasets.vocabulary import make_vocabulary
from repro.utils.rng import make_rng

#: The sizes reported in Table 2 of the paper, for documentation and for
#: anyone with the patience to run at full scale.
PAPER_SCALE = {
    "ar1": {"size1": 2_600, "size2": 2_300, "matches": 2_200},
    "ar2": {"size1": 2_500, "size2": 61_000, "matches": 2_300},
    "prd": {"size1": 1_100, "size2": 1_100, "matches": 1_100},
    "mov": {"size1": 28_000, "size2": 23_000, "matches": 23_000},
    "dbp": {"size1": 1_200_000, "size2": 2_200_000, "matches": 893_000},
}


@dataclass(frozen=True)
class DatasetStats:
    """The Table 2 characteristics of a generated dataset."""

    name: str
    size1: int
    size2: int
    attributes1: int
    attributes2: int
    nvp1: int
    nvp2: int
    duplicates: int


def dataset_characteristics(dataset: ERDataset) -> DatasetStats:
    """Compute the Table 2 row of *dataset*."""
    c1, c2 = dataset.collection1, dataset.collection2
    if c2 is None:
        raise ValueError("dataset_characteristics expects a clean-clean dataset")
    return DatasetStats(
        name=dataset.name,
        size1=len(c1),
        size2=len(c2),
        attributes1=len(c1.attribute_names),
        attributes2=len(c2.attribute_names),
        nvp1=c1.num_name_value_pairs,
        nvp2=c2.num_name_value_pairs,
        duplicates=dataset.num_duplicates,
    )


_ARTICLE_FIELDS = (
    FieldSpec("title", s.title),
    FieldSpec("authors", s.author_list),
    FieldSpec("venue", s.venue),
    FieldSpec("year", s.year),
)

_PRODUCT_FIELDS = (
    FieldSpec("product_name", s.product_name),
    FieldSpec("description", s.product_description),
    FieldSpec("manufacturer", s.brand),
    FieldSpec("price", s.price),
)

_MOVIE_FIELDS = (
    FieldSpec("title", s.title),
    FieldSpec("director", s.person_name),
    FieldSpec("actors", s.author_list),
    FieldSpec("year", s.year),
    FieldSpec("genre", s.genre, present_prob=0.9),
    FieldSpec("country", s.country, present_prob=0.85),
    FieldSpec("runtime", s.runtime, present_prob=0.8),
)


def _ar1(scale: float, seed: int) -> ERDataset:
    schema1 = SourceSchema(
        "dblp",
        {"title": ("title",), "authors": ("authors",), "venue": ("venue",),
         "year": ("year",)},
        noise=CLEAN,
    )
    schema2 = SourceSchema(
        "acm",
        {"paper title": ("title",), "author list": ("authors",),
         "publication venue": ("venue",), "yr": ("year",)},
        noise=CLEAN,
    )
    return make_clean_clean_dataset(
        "ar1", _ARTICLE_FIELDS, schema1, schema2,
        size1=_scaled(650, scale), size2=_scaled(580, scale),
        matches=_scaled(550, scale), seed=seed,
    )


def _ar2(scale: float, seed: int) -> ERDataset:
    schema1 = SourceSchema(
        "dblp",
        {"title": ("title",), "authors": ("authors",), "venue": ("venue",),
         "year": ("year",)},
        noise=CLEAN,
    )
    # Google Scholar: same logical schema, much dirtier values.
    schema2 = SourceSchema(
        "scholar",
        {"paper": ("title",), "writers": ("authors",), "where": ("venue",),
         "date": ("year",)},
        noise=NOISY,
    )
    return make_clean_clean_dataset(
        "ar2", _ARTICLE_FIELDS, schema1, schema2,
        size1=_scaled(400, scale), size2=_scaled(4_800, scale),
        matches=_scaled(370, scale), seed=seed,
    )


def _prd(scale: float, seed: int) -> ERDataset:
    noise = NoiseModel(typo_prob=0.08, token_drop_prob=0.12,
                       abbreviate_prob=0.08, missing_prob=0.08)
    schema1 = SourceSchema(
        "abt",
        {"name": ("product_name",), "description": ("description",),
         "manufacturer": ("manufacturer",), "price": ("price",)},
        noise=noise,
    )
    schema2 = SourceSchema(
        "buy",
        {"product": ("product_name",), "details": ("description",),
         "maker": ("manufacturer",), "cost": ("price",)},
        noise=noise,
    )
    return make_clean_clean_dataset(
        "prd", _PRODUCT_FIELDS, schema1, schema2,
        size1=_scaled(300, scale), size2=_scaled(290, scale),
        matches=_scaled(270, scale), seed=seed,
    )


def _mov(scale: float, seed: int) -> ERDataset:
    # IMDB: 4 attributes; the remaining canonical fields are simply not
    # tracked (0:n partial mappability).
    schema1 = SourceSchema(
        "imdb",
        {"name": ("title",), "filmmaker": ("director",), "cast": ("actors",),
         "year": ("year",)},
        noise=CLEAN,
    )
    schema2 = SourceSchema(
        "dbpedia",
        {"title": ("title",), "director": ("director",),
         "starring": ("actors",), "released": ("year",), "genre": ("genre",),
         "country": ("country",), "runtime": ("runtime",)},
        noise=NoiseModel(typo_prob=0.04, token_drop_prob=0.06,
                         abbreviate_prob=0.04, missing_prob=0.06,
                         numeric_truncate_prob=0.15),
    )
    return make_clean_clean_dataset(
        "mov", _MOVIE_FIELDS, schema1, schema2,
        size1=_scaled(1_400, scale), size2=_scaled(1_150, scale),
        matches=_scaled(1_100, scale), seed=seed,
    )


def _dbp(scale: float, seed: int, num_rare: int = 110) -> ERDataset:
    """Two DBpedia-like snapshots: wide, sparse, partially renamed schemas.

    A core of dense fields plus *num_rare* rare infobox-style properties,
    each drawing from its own narrow sub-vocabulary.  The 2009 snapshot
    renames about 40% of the properties and adds properties of its own —
    only part of the name-value pairs are shared across snapshots, as in
    the paper.
    """
    vocabulary = make_vocabulary()
    pool_rng = make_rng(seed + 1)
    fields: list[FieldSpec] = [
        FieldSpec("name", s.person_name),
        FieldSpec("label", s.title),
        FieldSpec("birth_year", s.year, present_prob=0.7),
        FieldSpec("place", s.city, present_prob=0.7),
        FieldSpec("country", s.country, present_prob=0.6),
        FieldSpec("occupation", s.occupation, present_prob=0.6),
    ]
    words = vocabulary.title_words
    for k in range(num_rare):
        start = int(pool_rng.integers(0, len(words) - 30))
        pool = words[start : start + 25]
        fields.append(
            FieldSpec(f"prop{k:03d}", s.categorical_field(pool),
                      present_prob=float(pool_rng.uniform(0.03, 0.20)))
        )

    core = {"name": ("name",), "label": ("label",),
            "birthYear": ("birth_year",), "place": ("place",),
            "country": ("country",), "occupation": ("occupation",)}
    attrs07 = dict(core)
    attrs09 = dict(core)
    for k in range(num_rare):
        field = f"prop{k:03d}"
        attrs07[field] = (field,)
        # 2009 renames ~40% of the shared properties ...
        renamed = f"infobox_{field}" if k % 5 in (0, 1) else field
        attrs09[renamed] = (field,)
    # ... and each snapshot has exclusive properties the other lacks.
    for k in range(num_rare, num_rare + 15):
        start = int(pool_rng.integers(0, len(words) - 30))
        fields.append(
            FieldSpec(f"prop{k:03d}", s.categorical_field(words[start : start + 25]),
                      present_prob=0.08)
        )
        attrs07[f"prop{k:03d}"] = (f"prop{k:03d}",)
    for k in range(num_rare + 15, num_rare + 30):
        start = int(pool_rng.integers(0, len(words) - 30))
        fields.append(
            FieldSpec(f"prop{k:03d}", s.categorical_field(words[start : start + 25]),
                      present_prob=0.08)
        )
        attrs09[f"prop{k:03d}"] = (f"prop{k:03d}",)

    schema1 = SourceSchema("dbp07", attrs07, noise=CLEAN)
    schema2 = SourceSchema(
        "dbp09", attrs09,
        noise=NoiseModel(typo_prob=0.04, token_drop_prob=0.06,
                         abbreviate_prob=0.04, missing_prob=0.10),
    )
    return make_clean_clean_dataset(
        "dbp", tuple(fields), schema1, schema2,
        size1=_scaled(1_500, scale), size2=_scaled(2_500, scale),
        matches=_scaled(1_100, scale), seed=seed,
        vocabulary=vocabulary,
    )


def _scaled(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def load_dbp_wide(
    num_rare: int = 300, scale: float = 1.0, seed: int = 42
) -> ERDataset:
    """The dbp pair with a configurable number of rare properties.

    Used by the LSH experiments (Table 6, Figure 10; ``num_rare`` of an
    experiment config's dataset), where the contrast between exhaustive
    and LSH-accelerated attribute-match induction only becomes visible
    with wide schemas.
    """
    if num_rare < 1:
        raise ValueError(f"num_rare must be positive, got {num_rare}")
    return _dbp(scale, seed, num_rare=num_rare)


CLEAN_CLEAN_DATASETS = {
    "ar1": _ar1,
    "ar2": _ar2,
    "prd": _prd,
    "mov": _mov,
    "dbp": _dbp,
}


def load_clean_clean(name: str, scale: float = 1.0, seed: int = 42) -> ERDataset:
    """Generate one of the five Table 2 dataset pairs.

    Parameters
    ----------
    name:
        ``"ar1"``, ``"ar2"``, ``"prd"``, ``"mov"`` or ``"dbp"``.
    scale:
        Multiplies every size; 1.0 is the laptop default documented in the
        module docstring.
    seed:
        Generation seed (42 is the seed of every committed experiment
        config under ``benchmarks/configs/``).
    """
    try:
        factory = CLEAN_CLEAN_DATASETS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; choose from {sorted(CLEAN_CLEAN_DATASETS)}"
        ) from None
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    return factory(scale, seed)
