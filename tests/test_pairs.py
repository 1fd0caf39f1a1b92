"""Tests for repro.data.pairs — linkage problem construction."""

import pytest

from repro.data import (
    NCVRGenerator,
    Operation,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.text.edit_distance import levenshtein


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=11)


class TestConstruction:
    def test_sizes_match(self, problem):
        assert len(problem.dataset_a) == 300
        assert len(problem.dataset_b) == 300

    def test_match_fraction_near_probability(self, problem):
        assert 0.35 <= problem.n_true_matches / 300 <= 0.65

    def test_true_matches_reference_valid_rows(self, problem):
        for row_a, row_b in problem.true_matches:
            assert 0 <= row_a < 300
            assert 0 <= row_b < 300

    def test_matched_pairs_differ_by_one_edit_total(self, problem):
        """PL applies exactly one edit across the whole record."""
        for row_a, row_b in problem.true_matches:
            __, values_a = problem.dataset_a[row_a]
            __, values_b = problem.dataset_b[row_b]
            total = sum(levenshtein(va, vb) for va, vb in zip(values_a, values_b))
            assert total == 1

    def test_operation_log_covers_all_matches(self, problem):
        assert set(problem.operation_log) == problem.true_matches

    def test_comparison_space(self, problem):
        assert problem.comparison_space == 300 * 300

    def test_reproducible(self):
        p1 = build_linkage_problem(NCVRGenerator(), 100, scheme_pl(), seed=5)
        p2 = build_linkage_problem(NCVRGenerator(), 100, scheme_pl(), seed=5)
        assert p1.true_matches == p2.true_matches
        assert p1.dataset_b.value_rows() == p2.dataset_b.value_rows()

    def test_filler_records_unrelated(self, problem):
        matched_rows_b = {row_b for __, row_b in problem.true_matches}
        unmatched = set(range(300)) - matched_rows_b
        assert unmatched  # with p=0.5 there are filler records

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            build_linkage_problem(NCVRGenerator(), 10, scheme_pl(), match_probability=0.0)

    def test_full_match_probability(self):
        p = build_linkage_problem(NCVRGenerator(), 50, scheme_pl(), match_probability=1.0, seed=1)
        assert p.n_true_matches == 50


class TestPerOperationBreakdown:
    def test_operations_partition_matches(self, problem):
        """Every true pair was made by at least one logged operation."""
        by_op = {
            op: {pair for pair, log in problem.operation_log.items()
                 if any(entry.operation is op for entry in log)}
            for op in Operation
        }
        union = set().union(*by_op.values())
        assert union == problem.true_matches

    def test_ph_matches_have_multiple_ops(self):
        p = build_linkage_problem(NCVRGenerator(), 100, scheme_ph(), seed=13)
        for pair in p.true_matches:
            assert len(p.operation_log[pair]) == 4  # 1 + 1 + 2

    def test_ph_total_edits(self):
        p = build_linkage_problem(NCVRGenerator(), 60, scheme_ph(), seed=14)
        for row_a, row_b in p.true_matches:
            (__, values_a), (__, values_b) = p.dataset_a[row_a], p.dataset_b[row_b]
            assert levenshtein(values_a[0], values_b[0]) <= 1
            assert levenshtein(values_a[1], values_b[1]) <= 1
            assert 1 <= levenshtein(values_a[2], values_b[2]) <= 2
            assert values_a[3] == values_b[3]
