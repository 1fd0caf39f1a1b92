"""Tests for the classic blocking baselines (sorted neighborhood, canopy)."""

import numpy as np
import pytest

from repro.baselines.canopy import CanopyLinker
from repro.baselines.sorted_neighborhood import (
    SortedNeighborhoodLinker,
    default_sorting_key,
)
from repro.data import DBLPGenerator, NCVRGenerator, build_linkage_problem, scheme_ph, scheme_pl
from repro.evaluation.metrics import evaluate_linkage


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 250, scheme_pl(), seed=91)


def quality_of(linker, problem):
    result = linker.link(problem.dataset_a, problem.dataset_b)
    return evaluate_linkage(
        result.matches, problem.true_matches, result.n_candidates,
        problem.comparison_space,
    ), result


class TestSortingKey:
    def test_prefix_concatenation(self):
        assert default_sorting_key(("JONES", "SMITH"), prefix=3) == "JONSMI"

    def test_short_values(self):
        assert default_sorting_key(("A", "BC"), prefix=3) == "ABC"


class TestSortedNeighborhood:
    def test_finds_majority_of_matches(self, problem):
        linker = SortedNeighborhoodLinker(threshold=4, window=15, passes=2, seed=1)
        quality, __ = quality_of(linker, problem)
        assert quality.pairs_completeness >= 0.5
        assert quality.reduction_ratio >= 0.8

    def test_wider_window_more_complete(self, problem):
        narrow, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=4, seed=1), problem
        )
        wide, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=40, seed=1), problem
        )
        assert wide.pairs_completeness >= narrow.pairs_completeness
        assert wide.n_candidates >= narrow.n_candidates

    def test_multi_pass_improves_completeness(self, problem):
        single, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=10, passes=1, seed=1), problem
        )
        multi, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=10, passes=3, seed=1), problem
        )
        assert multi.pairs_completeness >= single.pairs_completeness

    def test_no_guarantee_unlike_lsh(self):
        """The paper's Related Work point: when the sorting key itself is
        corrupted (a typo in the first attribute), single-pass SN misses
        similar pairs — there is no Equation (2) to save it.  Extra passes
        with rotated keys partially recover."""
        from repro.data.perturb import PerturbationScheme

        scheme = PerturbationScheme(name="first-attr", ops_per_attribute={0: 1})
        hard = build_linkage_problem(NCVRGenerator(), 250, scheme, seed=91)
        single, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=2, passes=1, seed=1), hard
        )
        multi, __ = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=10, passes=3, seed=1), hard
        )
        assert single.pairs_completeness < 0.9
        assert multi.pairs_completeness > single.pairs_completeness

    def test_matches_respect_threshold(self, problem):
        __, result = quality_of(
            SortedNeighborhoodLinker(threshold=4, window=10, seed=1), problem
        )
        assert (result.record_distances <= 4).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            SortedNeighborhoodLinker(threshold=4, window=1)
        with pytest.raises(ValueError):
            SortedNeighborhoodLinker(threshold=4, passes=0)


def reference_window_pairs(linker, rows_a, rows_b):
    """The window sweep written out pair by pair: every cross-dataset pair
    fewer than ``window`` positions apart in the (key, side, id)-sorted stream."""
    found = set()
    for pass_index in range(linker.passes):
        tagged = sorted(
            [(key, 0, i) for i, key in enumerate(linker._keys_for_pass(rows_a, pass_index))]
            + [(key, 1, j) for j, key in enumerate(linker._keys_for_pass(rows_b, pass_index))]
        )
        for pos, (__, side, idx) in enumerate(tagged):
            if side == 0:
                lo, hi = max(0, pos - linker.window + 1), pos + linker.window
                found.update((idx, j) for __, s, j in tagged[lo:hi] if s == 1)
    return found


class TestSortedNeighborhoodSweep:
    @pytest.fixture(scope="class")
    def problems(self):
        return {
            "ncvr-pl": build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=5),
            "dblp-ph": build_linkage_problem(DBLPGenerator(), 300, scheme_ph(), seed=6),
        }

    @pytest.mark.parametrize("name", ["ncvr-pl", "dblp-ph"])
    def test_candidates_equal_the_pairwise_sweep(self, problems, name):
        rows_a = problems[name].dataset_a.value_rows()
        rows_b = problems[name].dataset_b.value_rows()
        for passes in (1, 2, 3):
            for window in range(3, 26):
                linker = SortedNeighborhoodLinker(threshold=4, window=window, passes=passes)
                encoded, n_b = linker._candidates(rows_a, rows_b)
                got = set(zip(*(x.tolist() for x in np.divmod(encoded, n_b))))
                assert got == reference_window_pairs(linker, rows_a, rows_b), (passes, window)

    @pytest.mark.parametrize("name", ["ncvr-pl", "dblp-ph"])
    def test_matches_come_out_in_pair_order(self, problems, name):
        problem = problems[name]
        result = SortedNeighborhoodLinker(threshold=16, window=10, passes=3, seed=1).link(
            problem.dataset_a, problem.dataset_b
        )
        encoded = result.rows_a * len(problem.dataset_b) + result.rows_b
        assert result.rows_a.size > 100
        assert (np.diff(encoded) > 0).all()


class TestCanopy:
    def test_finds_majority_of_matches(self, problem):
        linker = CanopyLinker(threshold=4, loose=0.7, tight=0.3, seed=2)
        quality, __ = quality_of(linker, problem)
        assert quality.pairs_completeness >= 0.8

    def test_looser_canopies_more_candidates(self, problem):
        tight, __ = quality_of(
            CanopyLinker(threshold=4, loose=0.4, tight=0.2, seed=2), problem
        )
        loose, __ = quality_of(
            CanopyLinker(threshold=4, loose=0.9, tight=0.2, seed=2), problem
        )
        assert loose.n_candidates >= tight.n_candidates

    def test_matches_respect_threshold(self, problem):
        __, result = quality_of(
            CanopyLinker(threshold=4, loose=0.7, tight=0.3, seed=2), problem
        )
        assert (result.record_distances <= 4).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            CanopyLinker(threshold=4, loose=0.3, tight=0.6)
        with pytest.raises(ValueError):
            CanopyLinker(threshold=4, loose=1.2)
