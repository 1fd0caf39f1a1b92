"""Tests for repro.data.corpora and repro.data.generators."""

from collections import Counter

import numpy as np
import pytest

from repro.data import build_linkage_problem, scheme_ph, scheme_pl
from repro.data import generators as generators_module
from repro.data.corpora import (
    FIRST_NAMES,
    LAST_NAMES,
    STREET_NAMES,
    STREET_TYPES,
    TITLE_WORDS,
    TOWNS,
    length_tilt,
)
from repro.data.generators import (
    DBLPGenerator,
    NCVRGenerator,
    _WeightedWords,
    average_qgram_counts,
)
from repro.text.alphabet import TEXT_ALPHABET


class TestCorpora:
    @pytest.mark.parametrize(
        "corpus", [FIRST_NAMES, LAST_NAMES, STREET_NAMES, TOWNS, TITLE_WORDS]
    )
    def test_unique_and_normalised(self, corpus):
        assert len(set(corpus)) == len(corpus)
        for word in corpus:
            assert word == word.upper()
            assert all(ch in TEXT_ALPHABET for ch in word)

    def test_length_tilt_hits_target(self):
        weights = length_tilt(FIRST_NAMES, 6.1)
        mean = sum(w * len(word) for w, word in zip(weights, FIRST_NAMES))
        assert mean == pytest.approx(6.1, abs=0.01)
        assert sum(weights) == pytest.approx(1.0)

    def test_length_tilt_unattainable_target(self):
        with pytest.raises(ValueError):
            length_tilt(FIRST_NAMES, 100.0)


class TestNCVRGenerator:
    def test_deterministic_under_seed(self):
        g = NCVRGenerator()
        d1 = g.generate(50, seed=5)
        d2 = g.generate(50, seed=5)
        assert d1.value_rows() == d2.value_rows()

    def test_different_seeds_differ(self):
        g = NCVRGenerator()
        assert g.generate(50, seed=1).value_rows() != g.generate(50, seed=2).value_rows()

    def test_schema_attributes(self):
        ds = NCVRGenerator().generate(10, seed=0)
        assert ds.schema.names == ("FirstName", "LastName", "Address", "Town")

    def test_bigram_counts_near_table3(self):
        """Measured b^(f_i) within 10% of the paper's Table 3 values."""
        ds = NCVRGenerator().generate(3000, seed=7)
        b = average_qgram_counts(ds)
        assert b["FirstName"] == pytest.approx(5.1, rel=0.1)
        assert b["LastName"] == pytest.approx(5.0, rel=0.1)
        assert b["Address"] == pytest.approx(20.0, rel=0.1)
        assert b["Town"] == pytest.approx(7.2, rel=0.1)

    def test_values_in_experiment_alphabet(self):
        ds = NCVRGenerator().generate(100, seed=3)
        for __, values in ds:
            for value in values:
                assert all(ch in TEXT_ALPHABET for ch in value)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            NCVRGenerator().generate(0)


class TestDBLPGenerator:
    def test_schema_attributes(self):
        ds = DBLPGenerator().generate(10, seed=0)
        assert ds.schema.names == ("FirstName", "LastName", "Title", "Year")

    def test_bigram_counts_near_table3(self):
        ds = DBLPGenerator().generate(3000, seed=7)
        b = average_qgram_counts(ds)
        assert b["FirstName"] == pytest.approx(4.8, rel=0.1)
        assert b["LastName"] == pytest.approx(6.2, rel=0.1)
        assert b["Title"] == pytest.approx(64.8, rel=0.1)
        assert b["Year"] == pytest.approx(3.0, abs=0.01)

    def test_year_is_four_digits(self):
        ds = DBLPGenerator().generate(100, seed=1)
        for year in ds.column("Year"):
            assert len(year) == 4 and year.isdigit()
            assert 1970 <= int(year) <= 2015

    def test_titles_are_multiword(self):
        ds = DBLPGenerator().generate(50, seed=2)
        assert all(" " in title for title in ds.column("Title"))


class TestWeightCheck:
    """``_WeightedWords`` checks its weights once, as ``rng.choice`` checks ``p``.

    Each bad list below is one ``rng.choice(n, p=...)`` also rejects; the
    check runs at construction, not on every draw.
    """

    WORDS = ("AB", "ABC", "ABCD")

    @pytest.mark.parametrize(
        "weights",
        [
            [[0.2, 0.3, 0.5]],  # 2-D
            [0.5, 0.5],  # one weight short
            [0.25, 0.25, 0.25, 0.25],  # one weight too many
            [0.5, float("nan"), 0.5],
            [0.5, float("inf"), 0.5],
            [0.7, -0.2, 0.5],  # negative
            [0.2, 0.3, 0.4],  # sums to 0.9
            [0.2, 0.3, 0.5 + 1e-6],  # off by more than sqrt(eps)
        ],
        ids=["2d", "short", "long", "nan", "inf", "negative", "sum-low", "sum-eps"],
    )
    def test_bad_weights_rejected(self, monkeypatch, weights):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(len(self.WORDS), p=np.asarray(weights))
        monkeypatch.setattr(generators_module, "length_tilt", lambda words, mean: weights)
        with pytest.raises(ValueError):
            _WeightedWords(self.WORDS, 3.0)

    def test_sum_within_sqrt_eps_accepted(self, monkeypatch):
        weights = [0.2, 0.3, 0.5 + 1e-9]
        monkeypatch.setattr(generators_module, "length_tilt", lambda words, mean: weights)
        words = _WeightedWords(self.WORDS, 3.0)
        assert words.one(np.random.default_rng(0)) in self.WORDS


class _CountingRng:
    """Wrap a ``np.random.Generator``: log every method call by name.

    Attributes that are not methods (``bit_generator``) pass through
    unlogged, so a :class:`~repro.data.draws.RawDraws` can decode the
    wrapped Generator's stream.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls: list[tuple[str, tuple, dict]] = []

    def __getattr__(self, name):
        attribute = getattr(self._rng, name)
        if not callable(attribute):
            return attribute

        def counted(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return attribute(*args, **kwargs)

        return counted

    def names(self) -> Counter:
        return Counter(name for name, __, __ in self.calls)


def _is_scalar_draw(name: str, args: tuple, kwargs: dict) -> bool:
    """A ``random()`` / ``integers(low, high)`` call without a ``size``."""
    size_position = {"random": 0, "integers": 2}.get(name)
    if size_position is None:
        return False
    return len(args) <= size_position and kwargs.get("size") is None


@pytest.fixture
def counting_rngs(monkeypatch):
    """Every generator ``np.random.default_rng`` makes, wrapped and logged."""
    made: list[_CountingRng] = []
    real = np.random.default_rng

    def default_rng(seed=None):
        rng = _CountingRng(real(seed))
        made.append(rng)
        return rng

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


MAKERS = pytest.mark.parametrize(
    ("make", "n_samples"),
    [
        (lambda: NCVRGenerator().generate(300, seed=1), 3),
        (lambda: DBLPGenerator().generate(300, seed=1), 2),
        (lambda: build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=1), 6),
        (lambda: build_linkage_problem(DBLPGenerator(), 300, scheme_ph(), seed=1), 4),
    ],
    ids=["ncvr", "dblp", "ncvr-problem", "dblp-problem"],
)


class TestDrawCounts:
    """The clock-free gate on the per-draw path.

    ``rng.choice(n, p=p)`` re-validates ``p`` and recomputes its cumulative
    sum on every call (11-15 us); a draw from a prebuilt CDF is one
    ``random()`` and a bisect.  A scalar ``random()`` / ``integers()`` on
    the Generator is itself 0.5-1.7 us of numpy call overhead, so the
    per-record loops draw through a :class:`~repro.data.draws.RawDraws`
    instead and make none.  The draws must equal what numpy returns from
    the same stream, so the data do not move (``tests/test_data_stream``).
    """

    N_DRAWS = 200

    def test_weighted_draw_is_one_random_call(self):
        words = _WeightedWords(FIRST_NAMES, 6.1)
        rng = _CountingRng(np.random.default_rng(11))
        drawn = [words.one(rng) for __ in range(self.N_DRAWS)]
        assert rng.names() == {"random": self.N_DRAWS}
        twin = np.random.default_rng(11)
        expected = [
            FIRST_NAMES[int(twin.choice(len(FIRST_NAMES), p=words.weights))]
            for __ in range(self.N_DRAWS)
        ]
        assert drawn == expected

    def test_unweighted_draw_is_one_integers_call(self):
        words = _WeightedWords(STREET_TYPES)
        rng = _CountingRng(np.random.default_rng(12))
        drawn = [words.one(rng) for __ in range(self.N_DRAWS)]
        assert rng.names() == {"integers": self.N_DRAWS}
        twin = np.random.default_rng(12)
        expected = [
            STREET_TYPES[int(twin.choice(len(STREET_TYPES)))] for __ in range(self.N_DRAWS)
        ]
        assert drawn == expected

    @MAKERS
    def test_choice_only_in_vectorised_sample(self, counting_rngs, make, n_samples):
        make()
        choices = [kw for rng in counting_rngs for name, __, kw in rng.calls if name == "choice"]
        assert len(choices) == n_samples
        assert all(kw.get("size") is not None for kw in choices)

    @MAKERS
    def test_no_scalar_draw_on_the_generator(self, counting_rngs, make, n_samples):
        make()
        calls = [call for rng in counting_rngs for call in rng.calls]
        assert calls
        assert not [call for call in calls if _is_scalar_draw(*call)]

    def test_counting_rng_passes_attributes_through(self):
        rng = _CountingRng(np.random.default_rng(3))
        assert isinstance(rng.bit_generator, np.random.PCG64)
        assert rng.calls == []
        rng.random(4)
        rng.integers(0, 5)
        assert [name for name, __, __ in rng.calls] == ["random", "integers"]
        assert [_is_scalar_draw(*call) for call in rng.calls] == [False, True]
