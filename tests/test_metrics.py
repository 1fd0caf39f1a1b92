"""Tests for repro.evaluation.metrics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.evaluation.metrics import (
    evaluate_linkage,
    pairs_completeness,
    pairs_from_arrays,
    pairs_quality,
    reduction_ratio,
)

PAIRS = st.sets(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=30
)


class TestPairsCompleteness:
    def test_definition(self):
        truth = {(0, 0), (1, 1), (2, 2), (3, 3)}
        found = {(0, 0), (1, 1), (9, 9)}
        assert pairs_completeness(found, truth) == pytest.approx(0.5)

    def test_empty_truth_is_complete(self):
        assert pairs_completeness({(1, 1)}, set()) == 1.0

    @given(PAIRS, PAIRS)
    def test_range(self, found, truth):
        assert 0.0 <= pairs_completeness(found, truth) <= 1.0

    @given(PAIRS)
    def test_perfect_when_found_superset(self, truth):
        assert pairs_completeness(truth | {(99, 99)}, truth) == 1.0


class TestPairsQuality:
    def test_definition(self):
        truth = {(0, 0), (1, 1)}
        found = {(0, 0), (5, 5)}
        assert pairs_quality(found, truth, n_candidates=10) == pytest.approx(0.1)

    def test_zero_candidates(self):
        assert pairs_quality({(0, 0)}, {(0, 0)}, 0) == 0.0


class TestReductionRatio:
    def test_definition(self):
        assert reduction_ratio(100, 10_000) == pytest.approx(0.99)

    def test_no_reduction(self):
        assert reduction_ratio(10_000, 10_000) == 0.0

    def test_invalid_space(self):
        with pytest.raises(ValueError):
            reduction_ratio(1, 0)


class TestEvaluateLinkage:
    def test_full_bundle(self):
        truth = {(0, 0), (1, 1), (2, 2)}
        matches = [(0, 0), (1, 1), (7, 7)]
        quality = evaluate_linkage(matches, truth, n_candidates=6, comparison_space=100)
        assert quality.pairs_completeness == pytest.approx(2 / 3)
        assert quality.pairs_quality == pytest.approx(2 / 6)
        assert quality.reduction_ratio == pytest.approx(0.94)
        assert quality.precision == pytest.approx(2 / 3)
        assert quality.recall == pytest.approx(2 / 3)
        assert quality.f1 == pytest.approx(2 / 3)
        assert quality.n_true_positives == 2

    def test_no_matches(self):
        quality = evaluate_linkage([], {(0, 0)}, 5, 100)
        assert quality.precision == 0.0
        assert quality.recall == 0.0
        assert quality.f1 == 0.0

    @given(PAIRS, PAIRS)
    def test_recall_equals_pc(self, found, truth):
        """PC and recall coincide when matches are the classified pairs."""
        n_cand = len(found) + 5
        quality = evaluate_linkage(found, truth, n_cand, 10_000)
        assert quality.recall == pytest.approx(quality.pairs_completeness)


class TestHelpers:
    def test_pairs_from_arrays(self):
        pairs = pairs_from_arrays(np.asarray([1, 2]), np.asarray([3, 4]))
        assert pairs == {(1, 3), (2, 4)}
