"""Tests for repro.data.quality — missing values and non-standardisation."""

import numpy as np
import pytest

from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.quality import (
    CompositeScheme,
    MissingValueScheme,
    WordScrambleScheme,
    missingness_summary,
)
from repro.data.schema import Schema

SCHEMA = Schema.of("f1", "f2", "f3")
VALUES = ("JONES", "12 MAIN ST", "BOONE")


class TestMissingValueScheme:
    def test_blanks_with_probability_one(self):
        rng = np.random.default_rng(0)
        scheme = MissingValueScheme(missing_rate=1.0, protect=(0,))
        perturbed, log = scheme.perturb(VALUES, SCHEMA, rng)
        assert perturbed == ("JONES", "", "")
        assert len(log) == 2

    def test_never_blanks_everything(self):
        rng = np.random.default_rng(1)
        scheme = MissingValueScheme(missing_rate=1.0)
        perturbed, __ = scheme.perturb(VALUES, SCHEMA, rng)
        assert any(perturbed)

    def test_zero_rate_is_identity(self):
        rng = np.random.default_rng(2)
        scheme = MissingValueScheme(missing_rate=0.0)
        perturbed, log = scheme.perturb(VALUES, SCHEMA, rng)
        assert perturbed == VALUES
        assert log == ()

    def test_protected_attributes_survive(self):
        rng = np.random.default_rng(3)
        scheme = MissingValueScheme(missing_rate=1.0, protect=(0, 2))
        for i in range(5):
            perturbed, __ = scheme.perturb(VALUES, SCHEMA, rng)
            assert perturbed[0] == "JONES"
            assert perturbed[2] == "BOONE"

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            MissingValueScheme(missing_rate=1.5)


class TestWordScrambleScheme:
    def test_rotates_multiword_values(self):
        rng = np.random.default_rng(4)
        scheme = WordScrambleScheme(scramble_rate=1.0)
        perturbed, log = scheme.perturb(VALUES, SCHEMA, rng)
        # Only f2 has multiple words.
        assert perturbed[0] == "JONES"
        assert perturbed[2] == "BOONE"
        assert sorted(perturbed[1].split()) == sorted("12 MAIN ST".split())
        assert perturbed[1] != "12 MAIN ST"
        assert len(log) == 1

    def test_single_word_untouched(self):
        rng = np.random.default_rng(5)
        scheme = WordScrambleScheme(scramble_rate=1.0)
        values = ("ONEWORD", "TWO WORDS", "X")
        perturbed, __ = scheme.perturb(values, SCHEMA, rng)
        assert perturbed[0] == "ONEWORD"

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            WordScrambleScheme(scramble_rate=-0.1)


class TestCompositeScheme:
    def test_chains_schemes(self):
        rng = np.random.default_rng(6)
        composite = CompositeScheme(
            (WordScrambleScheme(1.0), MissingValueScheme(1.0, protect=(1,)))
        )
        perturbed, log = composite.perturb(VALUES, SCHEMA, rng)
        assert perturbed[0] == ""  # blanked by the second stage
        assert perturbed[1]  # protected, scrambled
        assert len(log) >= 2

    def test_name_derived(self):
        composite = CompositeScheme((WordScrambleScheme(0.5), MissingValueScheme(0.5)))
        assert composite.name == "scramble+missing"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositeScheme(())

    def test_plugs_into_linkage_problem(self):
        composite = CompositeScheme(
            (scheme_pl(), MissingValueScheme(0.2, protect=(0, 1)))
        )
        problem = build_linkage_problem(NCVRGenerator(), 100, composite, seed=7)
        assert problem.n_true_matches > 0
        summary = missingness_summary(problem.dataset_b)
        assert summary["FirstName"] == 0.0
        assert summary["Address"] >= 0.0


class TestMissingnessSummary:
    def test_fractions(self):
        schema = Schema.of("a", "b")
        from repro.data.schema import Dataset

        dataset = Dataset(
            schema,
            [("r0", ("X", "")), ("r1", ("", "")), ("r2", ("Z", "W"))],
        )
        summary = missingness_summary(dataset)
        assert summary["a"] == pytest.approx(1 / 3)
        assert summary["b"] == pytest.approx(2 / 3)
