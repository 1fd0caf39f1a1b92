"""Synthetic NCVR-like and DBLP-like dataset generators.

The paper's experiments draw 1M-record datasets from the North Carolina
voter registration file (FirstName / LastName / Address / Town) and the
DBLP bibliography (FirstName / LastName / Title / Year).  Neither corpus is
available offline, so these generators synthesise datasets with the same
*shape*: attribute inventories and average per-attribute bigram counts
``b^(f_i)`` matching Table 3 (5.1 / 5.0 / 20.0 / 7.2 and 4.8 / 6.2 / 64.8
/ 3.0).  The linkage algorithms only ever observe strings and the measured
``b`` statistics, so this preserves every behaviour the evaluation probes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.qgram import QGramScheme
from repro.data.corpora import (
    FIRST_NAMES,
    LAST_NAMES,
    STREET_NAMES,
    STREET_TYPES,
    TITLE_WORDS,
    TOWNS,
    length_tilt,
)
from repro.data.draws import RawDraws
from repro.data.schema import AttributeSpec, Dataset, Schema, dataset_from_rows
from repro.text.alphabet import TEXT_ALPHABET

#: Shared q-gram scheme of all experiment attributes (bigrams, letters +
#: digits + blank alphabet, unpadded — matching the paper's Figure 1 and
#: the Table 3 statistics, where ``b ≈ avg_length - 1``).
EXPERIMENT_SCHEME = QGramScheme(q=2, alphabet=TEXT_ALPHABET, padded=False)

NCVR_SCHEMA = Schema(
    tuple(
        AttributeSpec(name, EXPERIMENT_SCHEME)
        for name in ("FirstName", "LastName", "Address", "Town")
    )
)

DBLP_SCHEMA = Schema(
    tuple(
        AttributeSpec(name, EXPERIMENT_SCHEME)
        for name in ("FirstName", "LastName", "Title", "Year")
    )
)


class _WeightedWords:
    """A word list with sampling weights tilted to a target mean length.

    ``one`` draws exactly what ``rng.choice(len(words), p=weights)`` draws,
    from the same single ``random()`` (weighted) or ``integers(0, n)``
    (unweighted) call, but without re-validating ``p`` and recomputing its
    cumulative sum on every draw: the CDF is built once here, the way
    numpy builds it for ``choice``, and ``bisect_right`` on it is
    ``cdf.searchsorted(u, "right")`` for one ``u``.  ``rng`` is a
    Generator or a :class:`~repro.data.draws.RawDraws` over one.
    """

    def __init__(self, words: tuple[str, ...], target_mean_length: float | None = None) -> None:
        self.words = words
        self.weights: np.ndarray | None = None
        self._cdf: list[float] | None = None
        if target_mean_length is not None:
            self.weights = _checked_weights(length_tilt(words, target_mean_length), len(words))
            cdf = self.weights.cumsum()
            cdf /= cdf[-1]
            self._cdf = cdf.tolist()

    def sample(self, rng: np.random.Generator, size: int) -> list[str]:
        indices = rng.choice(len(self.words), size=size, p=self.weights)
        return list(map(self.words.__getitem__, indices.tolist()))

    def one(self, rng: np.random.Generator | RawDraws) -> str:
        if self._cdf is None:
            return self.words[rng.integers(0, len(self.words))]
        return self.words[bisect_right(self._cdf, rng.random())]


def _checked_weights(weights: Sequence[float], n_words: int) -> np.ndarray:
    """``weights`` as float64, with the checks ``rng.choice`` makes on ``p``.

    One weight per word, finite, non-negative and summing to 1 within
    ``sqrt(eps)``; ``ValueError`` otherwise.
    """
    p = np.asarray(weights, dtype=np.float64)
    if p.ndim != 1 or p.size != n_words:
        raise ValueError(f"need one weight per word ({n_words}), got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("weights must be finite")
    if (p < 0).any():
        raise ValueError("weights must be non-negative")
    total = math.fsum(p.tolist())
    if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError(f"weights must sum to 1, got {total!r}")
    return p


@dataclass(frozen=True)
class GeneratorProfile:
    """Target average string lengths per attribute (length = b + 1)."""

    first_name: float
    last_name: float
    long_field: float  # Address (NCVR) or Title (DBLP)
    short_field: float  # Town (NCVR); DBLP years are fixed 4 chars


#: Length targets derived from Table 3's b values (length ≈ b + 1).
NCVR_PROFILE = GeneratorProfile(first_name=6.1, last_name=6.0, long_field=21.0, short_field=8.2)
DBLP_PROFILE = GeneratorProfile(first_name=5.8, last_name=7.2, long_field=65.8, short_field=4.0)


class NCVRGenerator:
    """Generate voter-registration-like records.

    Attributes: FirstName, LastName, Address (``'123 MAPLE AVE [APT n]'``),
    Town.

    ``household_rate`` controls a key property of real voter files: family
    members who share LastName, Address and Town but differ in FirstName.
    These near-duplicate *non*-matches are what separates attribute-aware
    linkage from record-level Jaccard methods (HARRA matches siblings and
    early-prunes the true pair — the PC loss the paper reports).
    """

    def __init__(
        self, profile: GeneratorProfile = NCVR_PROFILE, household_rate: float = 0.3
    ) -> None:
        if not 0.0 <= household_rate < 1.0:
            raise ValueError(f"household_rate must be in [0, 1), got {household_rate}")
        self.profile = profile
        self.household_rate = household_rate
        self._first = _WeightedWords(FIRST_NAMES, profile.first_name)
        self._last = _WeightedWords(LAST_NAMES, profile.last_name)
        self._street = _WeightedWords(STREET_NAMES, 7.8)
        self._type = _WeightedWords(STREET_TYPES)
        self._town = _WeightedWords(TOWNS, profile.short_field)

    @property
    def schema(self) -> Schema:
        return NCVR_SCHEMA

    def _address(self, draws: RawDraws) -> str:
        number = draws.integers(1, 10000)
        address = f"{number} {self._street.one(draws)} {self._type.one(draws)}"
        # Unit suffixes lift the average length to the Table 3 target
        # (b ≈ 20 bigrams) the way real voter addresses do.
        if draws.random() < 0.65:
            return f"{address} APT {draws.integers(1, 100)}"
        return address

    def generate_rows(self, n: int, seed: int | None = None) -> list[tuple[str, ...]]:
        """The value rows of ``generate(n, seed)``, without ids."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        firsts = self._first.sample(rng, n)
        lasts = self._last.sample(rng, n)
        towns = self._town.sample(rng, n)
        household_rate = self.household_rate
        rows: list[tuple[str, ...]] = []
        address = self._address
        with RawDraws(rng) as draws:
            random, integers = draws.random, draws.integers
            for first, last, town in zip(firsts, lasts, towns):
                if rows and random() < household_rate:
                    # A family member of an earlier voter: new first name,
                    # shared last name / address / town.
                    relative = rows[integers(0, len(rows))]
                    rows.append((first, *relative[1:]))
                else:
                    rows.append((first, last, address(draws), town))
        return rows

    def generate(self, n: int, seed: int | None = None, id_prefix: str = "N") -> Dataset:
        """Generate ``n`` records, reproducibly under ``seed``."""
        rows = self.generate_rows(n, seed)
        return dataset_from_rows(NCVR_SCHEMA, rows, id_prefix, name="ncvr-like")


class DBLPGenerator:
    """Generate bibliography-like records.

    Attributes: FirstName, LastName, Title (a plausible paper title around
    66 characters), Year (4 digits, so exactly 3 bigrams as in Table 3).

    ``coauthor_rate`` produces records sharing Title and Year with an
    earlier record but naming a different author — the bibliographic
    analogue of voter-file households.  A record-level bigram vector
    cannot tell co-authors apart (the title's bigrams dominate), which is
    exactly why the paper reports HARRA's PC "fell below 0.75" on DBLP.
    """

    def __init__(
        self, profile: GeneratorProfile = DBLP_PROFILE, coauthor_rate: float = 0.25
    ) -> None:
        if not 0.0 <= coauthor_rate < 1.0:
            raise ValueError(f"coauthor_rate must be in [0, 1), got {coauthor_rate}")
        self.profile = profile
        self.coauthor_rate = coauthor_rate
        self._first = _WeightedWords(FIRST_NAMES, profile.first_name)
        self._last = _WeightedWords(LAST_NAMES, profile.last_name)
        self._word = _WeightedWords(TITLE_WORDS)

    @property
    def schema(self) -> Schema:
        return DBLP_SCHEMA

    def _title(self, draws: RawDraws) -> str:
        # Append words until adding another would overshoot the target
        # length by more than it undershoots; titles then average out near
        # the Table 3 statistic (b ≈ 64.8 bigrams).
        target = self.profile.long_field
        words = [self._word.one(draws)]
        length = len(words[0])
        while True:
            word = self._word.one(draws)
            new_length = length + 1 + len(word)
            if new_length > target and (new_length - target) > (target - length):
                break
            words.append(word)
            length = new_length
            if length >= target:
                break
        return " ".join(words)

    def generate_rows(self, n: int, seed: int | None = None) -> list[tuple[str, ...]]:
        """The value rows of ``generate(n, seed)``, without ids."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        firsts = self._first.sample(rng, n)
        lasts = self._last.sample(rng, n)
        coauthor_rate = self.coauthor_rate
        rows: list[tuple[str, ...]] = []
        title = self._title
        with RawDraws(rng) as draws:
            random, integers = draws.random, draws.integers
            for first, last in zip(firsts, lasts):
                if rows and random() < coauthor_rate:
                    # A co-author entry: different author, same title and year.
                    paper = rows[integers(0, len(rows))]
                    rows.append((first, last, paper[2], paper[3]))
                else:
                    rows.append((first, last, title(draws), str(integers(1970, 2016))))
        return rows

    def generate(self, n: int, seed: int | None = None, id_prefix: str = "D") -> Dataset:
        """Generate ``n`` records, reproducibly under ``seed``."""
        rows = self.generate_rows(n, seed)
        return dataset_from_rows(DBLP_SCHEMA, rows, id_prefix, name="dblp-like")


def average_qgram_counts(dataset: Dataset) -> dict[str, float]:
    """Measured ``b^(f_i)`` per attribute (the Table 3 statistic)."""
    out: dict[str, float] = {}
    for spec in dataset.schema:
        column = dataset.column(spec.name)
        out[spec.name] = sum(spec.scheme.count(v) for v in column) / len(column)
    return out
