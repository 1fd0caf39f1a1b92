"""Tests for repro.baselines.harra."""

import pytest

from repro.baselines.harra import HarraLinker
from repro.baselines.minhash import MinHashLinker, bigram_matrix
from repro.core.qgram import QGramScheme
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.evaluation.metrics import evaluate_linkage
from repro.hamming.distance import jaccard_distance_sets
from repro.text.alphabet import TEXT_ALPHABET
from tests.bits import set_bits

SCHEME = QGramScheme(alphabet=TEXT_ALPHABET)


def bigram_set(row, scheme=SCHEME):
    """The bits of ``row``'s record-level bigram vector."""
    return set(set_bits(bigram_matrix([row], scheme), 0))


class TestRecordBigramSet:
    def test_merges_attributes(self):
        merged = bigram_set(("AB", "CD"))
        assert merged == SCHEME.index_set("AB") | SCHEME.index_set("CD")

    def test_cross_attribute_ambiguity(self):
        """Identical bigrams from different attributes collapse — the
        weakness the paper attributes to HARRA's record-level vector."""
        same = bigram_set(("ABX", "AB"))
        assert SCHEME.index_set("AB") <= same
        # The record ('AB', 'AB') is indistinguishable from ('AB', '') at
        # the bigram-set level.
        assert bigram_set(("AB", "AB")) == bigram_set(("AB", ""))


class TestHarraLinker:
    @pytest.fixture(scope="class")
    def problem(self):
        return build_linkage_problem(NCVRGenerator(), 250, scheme_pl(), seed=21)

    def test_finds_most_matches(self, problem):
        linker = HarraLinker(threshold=0.35, k=5, n_tables=30, seed=1)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        quality = evaluate_linkage(
            result.matches, problem.true_matches, result.n_candidates, problem.comparison_space
        )
        assert quality.pairs_completeness >= 0.6
        assert quality.reduction_ratio >= 0.9

    def test_early_pruning_never_beats_exhaustive(self, problem):
        pruned = HarraLinker(threshold=0.35, n_tables=30, seed=2)
        full = MinHashLinker(threshold=0.35, n_tables=30, prefix_fraction=0.02, seed=2)
        res_pruned = pruned.link(problem.dataset_a, problem.dataset_b)
        res_full = full.link(problem.dataset_a, problem.dataset_b)
        found_pruned = len(res_pruned.matches & problem.true_matches)
        found_full = len(res_full.matches & problem.true_matches)
        assert found_pruned <= found_full

    def test_more_tables_more_complete(self, problem):
        few = HarraLinker(threshold=0.35, n_tables=5, seed=3)
        many = HarraLinker(threshold=0.35, n_tables=40, seed=3)
        pc_few = evaluate_linkage(
            few.link(problem.dataset_a, problem.dataset_b).matches,
            problem.true_matches, 1, problem.comparison_space,
        ).pairs_completeness
        pc_many = evaluate_linkage(
            many.link(problem.dataset_a, problem.dataset_b).matches,
            problem.true_matches, 1, problem.comparison_space,
        ).pairs_completeness
        assert pc_many >= pc_few

    def test_matches_satisfy_threshold(self, problem):
        linker = HarraLinker(threshold=0.35, n_tables=20, seed=4)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        rows_a = problem.dataset_a.value_rows()
        rows_b = problem.dataset_b.value_rows()
        for a, b in result.matches:
            dist = jaccard_distance_sets(
                set().union(*map(linker.scheme.index_set, rows_a[a])),
                set().union(*map(linker.scheme.index_set, rows_b[b])),
            )
            assert dist <= 0.35

    def test_timings_reported(self, problem):
        linker = HarraLinker(threshold=0.35, n_tables=10, seed=5)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        assert {"embed", "index", "match"} == set(result.timings)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            HarraLinker(threshold=1.5)
