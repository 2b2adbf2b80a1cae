"""Field samplers shared by the benchmark dataset configurations.

Each sampler draws one clean canonical value.  They are deliberately
imperfectly separated: titles occasionally embed a surname or a year, and
descriptions embed brand names — giving Token Blocking the cross-attribute
ambiguity (Figure 1's "Abram") that loosely schema-aware blocking resolves.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.datasets.vocabulary import Vocabulary

FieldSampler = Callable[[np.random.Generator, Vocabulary], str]


def person_name(rng: np.random.Generator, v: Vocabulary) -> str:
    """``first last`` — a high-entropy field."""
    return f"{v.pick(rng, v.first_names)} {v.pick(rng, v.last_names)}"


def first_name(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.first_names)


def last_name(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.last_names)


def author_list(rng: np.random.Generator, v: Vocabulary) -> str:
    """One to three person names — bibliographic author strings."""
    count = int(rng.integers(1, 4))
    return " and ".join(person_name(rng, v) for _ in range(count))


def year(rng: np.random.Generator, v: Vocabulary) -> str:
    """A publication-era year — a low-entropy field (~60 distinct values)."""
    return str(int(rng.integers(1955, 2016)))


def title(rng: np.random.Generator, v: Vocabulary) -> str:
    """3-8 title words; sometimes leaks a surname or a year token."""
    count = int(rng.integers(3, 9))
    words = [v.pick(rng, v.title_words) for _ in range(count)]
    if rng.random() < 0.15:
        words[int(rng.integers(0, len(words)))] = v.pick(rng, v.last_names)
    if rng.random() < 0.08:
        words.append(str(int(rng.integers(1955, 2016))))
    return " ".join(words)


def venue(rng: np.random.Generator, v: Vocabulary) -> str:
    """Conference/journal-ish string — low-to-mid entropy."""
    return f"{v.pick(rng, v.venues)} {v.pick(rng, v.cities)}"


def pages(rng: np.random.Generator, v: Vocabulary) -> str:
    start = int(rng.integers(1, 900))
    return f"{start}-{start + int(rng.integers(4, 25))}"


def volume(rng: np.random.Generator, v: Vocabulary) -> str:
    return str(int(rng.integers(1, 60)))


def street_address(rng: np.random.Generator, v: Vocabulary) -> str:
    """``<surname-derived street> <number>`` — the Abram-street generator."""
    return f"{v.pick(rng, v.street_names)} {int(rng.integers(1, 200))}"


def city(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.cities)


def occupation(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.occupations)


def brand(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.brands)


def product_name(rng: np.random.Generator, v: Vocabulary) -> str:
    """``brand type model-code`` — brand tokens recur in descriptions."""
    code = f"{v.pick(rng, v.adjectives)[:2]}{int(rng.integers(100, 9999))}"
    return f"{v.pick(rng, v.brands)} {v.pick(rng, v.product_types)} {code}"


def product_description(rng: np.random.Generator, v: Vocabulary) -> str:
    count = int(rng.integers(4, 10))
    words = [v.pick(rng, v.adjectives) for _ in range(count)]
    if rng.random() < 0.5:
        words.append(v.pick(rng, v.brands))  # brand leaks into description
    words.append(v.pick(rng, v.product_types))
    return " ".join(words)


def price(rng: np.random.Generator, v: Vocabulary) -> str:
    return f"{int(rng.integers(5, 2500))}.{int(rng.integers(0, 100)):02d}"


def genre(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.genres)


def country(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.countries)


def runtime(rng: np.random.Generator, v: Vocabulary) -> str:
    return f"{int(rng.integers(60, 220))} min"


def record_label(rng: np.random.Generator, v: Vocabulary) -> str:
    return v.pick(rng, v.labels)


def categorical_field(pool: tuple[str, ...], max_words: int = 3) -> FieldSampler:
    """A sampler over a fixed sub-pool — builds the rare, narrow attributes
    of the dbp-like wide-schema datasets."""
    if not pool:
        raise ValueError("pool must be non-empty")

    def sampler(rng: np.random.Generator, v: Vocabulary) -> str:
        count = int(rng.integers(1, max_words + 1))
        return " ".join(pool[int(rng.integers(0, len(pool)))] for _ in range(count))

    return sampler
