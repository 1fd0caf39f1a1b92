"""Tests for repro.baselines.bfh."""

import pytest

from repro.baselines.bfh import BfHLinker
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.evaluation.metrics import evaluate_linkage


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 250, scheme_pl(), seed=31)


class TestConfiguration:
    def test_paper_pl_table_count(self, problem):
        """K=30, record-level theta = 4 * 45 over 2000 bits gives a small L
        (the paper reports L = 4 for its PL setting); the link reports it."""
        linker = BfHLinker(
            {"f1": 45, "f2": 45, "f3": 45, "f4": 45}, n_attributes=4, k=30, seed=0
        )
        assert linker.blocking_threshold == 180
        result = linker.link(problem.dataset_a, problem.dataset_b)
        assert 3 <= result.counters["n_tables"] <= 40

    def test_explicit_blocking_threshold(self):
        linker = BfHLinker(
            {"f1": 45}, n_attributes=4, blocking_threshold=45, k=30, seed=0
        )
        assert linker.blocking_threshold == 45

    def test_unknown_attribute_rejected(self):
        with pytest.raises(KeyError):
            BfHLinker({"f9": 45}, n_attributes=4)

    def test_empty_thresholds_rejected(self):
        with pytest.raises(ValueError):
            BfHLinker({}, n_attributes=4)


class TestLinkage:
    def test_high_completeness_on_pl(self, problem):
        linker = BfHLinker(
            {"f1": 45, "f2": 45, "f3": 45, "f4": 45},
            n_attributes=4, k=30, seed=1,
        )
        result = linker.link(problem.dataset_a, problem.dataset_b)
        quality = evaluate_linkage(
            result.matches, problem.true_matches, result.n_candidates,
            problem.comparison_space,
        )
        assert quality.pairs_completeness >= 0.85
        assert quality.reduction_ratio >= 0.9

    def test_matches_respect_attribute_thresholds(self, problem):
        linker = BfHLinker(
            {"f1": 45, "f2": 45, "f3": 45, "f4": 45},
            n_attributes=4, k=30, seed=2,
        )
        result = linker.link(problem.dataset_a, problem.dataset_b)
        for name, threshold in linker.attribute_thresholds.items():
            assert (result.attribute_distances[name] <= threshold).all()

    def test_timings_reported(self, problem):
        linker = BfHLinker({"f1": 45}, n_attributes=4, k=20, n_tables=2, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        assert {"embed", "index", "match"} == set(result.timings)

    def test_unconstrained_attributes_pass_through(self, problem):
        """Thresholding only f1 yields at least as many matches as all four."""
        loose = BfHLinker({"f1": 45}, n_attributes=4, k=30, n_tables=6, seed=4)
        tight = BfHLinker(
            {"f1": 45, "f2": 45, "f3": 45, "f4": 45},
            n_attributes=4, k=30, n_tables=6, seed=4,
        )
        res_loose = loose.link(problem.dataset_a, problem.dataset_b)
        res_tight = tight.link(problem.dataset_a, problem.dataset_b)
        assert res_tight.matches <= res_loose.matches
