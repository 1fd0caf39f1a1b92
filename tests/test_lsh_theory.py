"""Tests for repro.hamming.theory — Equation (2) against the paper's numbers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.bitvector import BitVector
from repro.hamming.lsh import HammingLSH
from repro.hamming.theory import (
    base_success_probability,
    composite_collision_probability,
    hamming_lsh_parameters,
    optimal_table_count,
    recall_lower_bound,
)


class TestBaseSuccessProbability:
    def test_definition(self):
        assert base_success_probability(4, 120) == pytest.approx(1 - 4 / 120)

    def test_zero_threshold(self):
        assert base_success_probability(0, 100) == 1.0

    def test_full_threshold(self):
        assert base_success_probability(100, 100) == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            base_success_probability(5, 0)
        with pytest.raises(ValueError):
            base_success_probability(-1, 10)
        with pytest.raises(ValueError):
            base_success_probability(11, 10)


class TestPaperTableCounts:
    """The L values quoted in Section 6.2 for scheme PL."""

    def test_ncvr_pl_gives_l6(self):
        __, tables = hamming_lsh_parameters(threshold=4, n_bits=120, k=30, delta=0.1)
        assert tables == 6

    def test_dblp_pl_gives_l3(self):
        __, tables = hamming_lsh_parameters(threshold=4, n_bits=267, k=30, delta=0.1)
        assert tables == 3

    def test_formula_is_equation_2(self):
        p = base_success_probability(4, 120) ** 30
        expected = math.ceil(math.log(0.1) / math.log(1 - p))
        assert optimal_table_count(p, 0.1) == expected


class TestOptimalTableCount:
    def test_certain_collision_needs_one_table(self):
        assert optimal_table_count(1.0) == 1

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            optimal_table_count(0.0)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            optimal_table_count(0.5, delta=0.0)
        with pytest.raises(ValueError):
            optimal_table_count(0.5, delta=1.0)

    @given(
        st.floats(min_value=1e-4, max_value=0.999),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_guarantee_holds(self, p, delta):
        """L from Equation (2) always achieves recall >= 1 - delta."""
        tables = optimal_table_count(p, delta)
        assert recall_lower_bound(p, tables) >= 1.0 - delta - 1e-12

    @given(
        st.floats(min_value=1e-3, max_value=0.999),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_l_is_minimal(self, p, delta):
        """One table fewer would violate the guarantee (L is optimal)."""
        tables = optimal_table_count(p, delta)
        if tables > 1:
            assert recall_lower_bound(p, tables - 1) < 1.0 - delta + 1e-9


class TestCompositeProbability:
    def test_powers(self):
        assert composite_collision_probability(0.5, 3) == pytest.approx(0.125)

    def test_k_one_identity(self):
        assert composite_collision_probability(0.7, 1) == pytest.approx(0.7)

    def test_invalid(self):
        with pytest.raises(ValueError):
            composite_collision_probability(1.5, 2)
        with pytest.raises(ValueError):
            composite_collision_probability(0.5, 0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(1, 50))
    def test_monotone_in_k(self, p, k):
        assert composite_collision_probability(p, k + 1) <= composite_collision_probability(p, k)


class TestRecallBound:
    def test_monotone_in_tables(self):
        assert recall_lower_bound(0.3, 5) > recall_lower_bound(0.3, 2)

    def test_single_table(self):
        assert recall_lower_bound(0.25, 1) == pytest.approx(0.25)

    def test_invalid_tables(self):
        with pytest.raises(ValueError):
            recall_lower_bound(0.5, 0)


class TestEquation2Recall:
    """Eq. 2's guarantee, measured: a pair at distance exactly theta is found
    by ``HammingLSH.match`` in at least ``1 - delta`` of independent draws."""

    #: Independent index seeds per configuration.
    N_SEEDS = 1000
    #: Two-sided normal quantile of a 99.9% binomial interval.
    Z = 3.29

    @pytest.mark.parametrize(
        "n_bits, k, threshold, n_tables",
        [(120, 30, 4, 6), (267, 30, 8, 5), (500, 20, 16, 4)],
    )
    def test_pair_at_threshold_found_at_eq2_rate(self, n_bits, k, threshold, n_tables):
        """Over ``N_SEEDS`` seeds (``L`` from Eq. 2, delta = 0.1) the hit rate
        is at least ``1 - delta`` and lies in the 99.9% binomial interval
        around the exact ``1 - (1 - (1 - theta/m)^K)^L`` of positions drawn
        with replacement.  Drawing them without replacement would lower the
        rate: at ``(120, 30, 4)`` to 0.893, outside the interval (and under
        0.9).  The seeds are fixed, so the test is deterministic."""
        rng = np.random.default_rng(n_bits)
        a = rng.integers(0, 2, n_bits)
        b = a.copy()
        flipped = rng.choice(n_bits, threshold, replace=False)
        b[flipped] ^= 1
        matrix_a = BitMatrix.from_vectors([BitVector.from_bits(a)])
        matrix_b = BitMatrix.from_vectors([BitVector.from_bits(b)])
        hits = 0
        for seed in range(self.N_SEEDS):
            lsh = HammingLSH(n_bits, k, threshold=threshold, delta=0.1, seed=seed)
            assert lsh.n_tables == n_tables
            lsh.index(matrix_a)
            rows_a, __, distances = lsh.match(matrix_a, matrix_b)
            assert distances.tolist() in ([], [threshold])
            hits += rows_a.size
        rate = hits / self.N_SEEDS
        exact = 1.0 - (1.0 - (1.0 - threshold / n_bits) ** k) ** n_tables
        half_width = self.Z * math.sqrt(exact * (1.0 - exact) / self.N_SEEDS)
        assert rate >= 1.0 - 0.1
        assert abs(rate - exact) <= half_width, (rate, exact, half_width)
