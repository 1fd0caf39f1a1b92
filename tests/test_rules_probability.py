"""Tests for repro.rules.probability — Definitions 4-6 and the paper's L values."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cvector import CVectorEncoder
from repro.core.encoder import RecordEncoder
from repro.rules.ast import And, Comparison, Not, Or, RuleError
from repro.rules.blocking import RuleAwareBlocker
from repro.rules.parser import parse_rule
from repro.rules.probability import (
    AttributeParams,
    attribute_success_probability,
    comparison_collision_probability,
    rule_collision_probability,
    rule_table_count,
)
from tests.bits import from_bits

NCVR = {
    "f1": AttributeParams(15, 5),
    "f2": AttributeParams(15, 5),
    "f3": AttributeParams(68, 10),
}
DBLP = {
    "f1": AttributeParams(14, 5),
    "f2": AttributeParams(19, 5),
    "f3": AttributeParams(226, 12),
}
C1 = parse_rule("(f1<=4) & (f2<=4) & (f3<=8)")


class TestAttributeSuccess:
    def test_definition(self):
        assert attribute_success_probability(4, 15) == pytest.approx(1 - 4 / 15)

    def test_invalid(self):
        with pytest.raises(RuleError):
            attribute_success_probability(16, 15)
        with pytest.raises(RuleError):
            attribute_success_probability(1, 0)

    def test_params_validation(self):
        with pytest.raises(RuleError):
            AttributeParams(0, 5)
        with pytest.raises(RuleError):
            AttributeParams(5, 0)


class TestDefinition4And:
    def test_product_bound(self):
        prob = rule_collision_probability(C1, NCVR)
        expected = (
            attribute_success_probability(4, 15) ** 5
        ) ** 2 * attribute_success_probability(8, 68) ** 10
        assert prob == pytest.approx(expected)

    def test_paper_l_178_ncvr(self):
        assert rule_table_count(C1, NCVR, delta=0.1) == 178

    def test_paper_l_62_dblp(self):
        assert rule_table_count(C1, DBLP, delta=0.1) == 62


class TestDefinition4Recall:
    """Definition 4's guarantee, measured like Eq. 2's
    (``test_lsh_theory.py::TestEquation2Recall``): a pair exactly at C1's
    attribute thresholds is formulated by ``RuleAwareBlocker`` at the rate
    ``1 - (1 - prod_i (1 - d_i/m_i)^(K_i))^L`` of its one AND structure."""

    #: Independent blocker seeds per configuration.
    N_SEEDS = 1000
    #: Two-sided normal quantile of a 99.9% binomial interval.
    Z = 3.29

    def test_pair_at_thresholds_formulated_at_def4_rate(self):
        """Over ``N_SEEDS`` seeds (DBLP's widths and K, the suite's
        ``link-dblp-ph`` rule: ``L`` = 62 from Eq. 2 with Def 4's product,
        delta = 0.1) the hit rate lies in the 99.9% binomial interval around
        the exact rate, and that rate is at least ``1 - delta``.  The exact
        rate is 0.9034 — ``L`` is the least count that reaches 0.9 — so a
        seed range's own rate falls under 0.9 about a third of the time: the
        measured rate is held to ``1 - delta`` less the interval's half
        width.  The seeds are fixed, so the test is deterministic.  (NCVR's
        178 tables take 13 s for the same count, spent drawing positions.)"""
        params, n_tables = DBLP, 62
        encoder = RecordEncoder(
            [CVectorEncoder(params[name].m, seed=i) for i, name in enumerate(sorted(params))],
            names=sorted(params),
        )
        rng = np.random.default_rng(n_tables)
        a = rng.integers(0, 2, encoder.total_bits)
        b = a.copy()
        thresholds = {cmp.attribute: cmp.threshold for cmp in C1.comparisons()}
        for name, threshold in thresholds.items():
            layout = encoder.layout(name)
            b[layout.offset + rng.choice(layout.width, threshold, replace=False)] ^= 1
        matrix_a, matrix_b = from_bits(a), from_bits(b)
        k = {name: attribute.k for name, attribute in params.items()}
        hits = 0
        for seed in range(self.N_SEEDS):
            blocker = RuleAwareBlocker(C1, encoder, k=k, delta=0.1, seed=seed)
            assert blocker.total_tables == n_tables
            blocker.index(matrix_a)
            rows_a, __, distances = blocker.match(matrix_b)
            if rows_a.size:
                assert {name: d.tolist() for name, d in distances.items()} == {
                    name: [thresholds[name]] for name in params
                }
            hits += rows_a.size
        rate = hits / self.N_SEEDS
        per_table = math.prod(
            (1.0 - thresholds[name] / attribute.m) ** attribute.k
            for name, attribute in params.items()
        )
        exact = 1.0 - (1.0 - per_table) ** n_tables
        half_width = self.Z * math.sqrt(exact * (1.0 - exact) / self.N_SEEDS)
        assert exact >= 1.0 - 0.1
        assert rate >= 1.0 - 0.1 - half_width
        assert abs(rate - exact) <= half_width, (rate, exact, half_width)


class TestDefinition5Or:
    def test_two_arm_inclusion_exclusion(self):
        rule = parse_rule("(f1<=4) | (f2<=4)")
        p1 = comparison_collision_probability(Comparison("f1", 4), NCVR)
        p2 = comparison_collision_probability(Comparison("f2", 4), NCVR)
        expected = p1 + p2 - p1 * p2  # Equation (11)
        assert rule_collision_probability(rule, NCVR) == pytest.approx(expected)

    def test_three_arm_inclusion_exclusion(self):
        rule = parse_rule("(f1<=4) | (f2<=4) | (f3<=8)")
        ps = [
            comparison_collision_probability(Comparison(a, t), NCVR)
            for a, t in (("f1", 4), ("f2", 4), ("f3", 8))
        ]
        miss = 1.0
        for p in ps:
            miss *= 1 - p
        assert rule_collision_probability(rule, NCVR) == pytest.approx(1 - miss)

    def test_or_needs_fewer_tables_than_and(self):
        and_rule = parse_rule("(f1<=4) & (f2<=4)")
        or_rule = parse_rule("(f1<=4) | (f2<=4)")
        assert rule_table_count(or_rule, NCVR) < rule_table_count(and_rule, NCVR)


class TestDefinition6Not:
    def test_complement(self):
        rule = Not(Comparison("f2", 4))
        p2 = comparison_collision_probability(Comparison("f2", 4), NCVR)
        assert rule_collision_probability(rule, NCVR) == pytest.approx(1 - p2)

    def test_c3_combines_and_with_not(self):
        c3 = parse_rule("(f1<=4) & !(f2<=4)")
        p1 = comparison_collision_probability(Comparison("f1", 4), NCVR)
        p2 = comparison_collision_probability(Comparison("f2", 4), NCVR)
        assert rule_collision_probability(c3, NCVR) == pytest.approx(p1 * (1 - p2))


class TestGeneralProperties:
    def test_missing_params_raise(self):
        with pytest.raises(RuleError, match="no blocking parameters"):
            rule_collision_probability(Comparison("f9", 1), NCVR)

    @given(
        st.integers(0, 10),
        st.integers(0, 10),
        st.integers(1, 8),
        st.integers(1, 8),
    )
    def test_probabilities_stay_in_unit_interval(self, t1, t2, k1, k2):
        params = {"f1": AttributeParams(12, k1), "f2": AttributeParams(12, k2)}
        for rule in (
            And([Comparison("f1", t1), Comparison("f2", t2)]),
            Or([Comparison("f1", t1), Comparison("f2", t2)]),
            Not(Comparison("f1", t1)),
        ):
            prob = rule_collision_probability(rule, params)
            assert 0.0 <= prob <= 1.0

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_and_below_or(self, t1, t2):
        params = {"f1": AttributeParams(12, 3), "f2": AttributeParams(12, 3)}
        and_p = rule_collision_probability(
            And([Comparison("f1", t1), Comparison("f2", t2)]), params
        )
        or_p = rule_collision_probability(
            Or([Comparison("f1", t1), Comparison("f2", t2)]), params
        )
        assert and_p <= or_p + 1e-12
