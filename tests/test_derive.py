"""Tests for repro.rules.derive — thresholds from error models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.minhash import bigram_matrix
from repro.core.qgram import QGramScheme
from repro.data.perturb import ALL_OPERATIONS, Operation, apply_operation
from repro.rules.ast import And
from repro.rules.derive import (
    derive_thresholds,
    error_budget,
    operation_bit_cost,
)
from repro.text.alphabet import TEXT_ALPHABET
from tests import bits

import numpy as np


class TestOperationBitCost:
    def test_section_5_1_bounds_for_bigrams(self):
        assert operation_bit_cost(Operation.SUBSTITUTE) == 4
        assert operation_bit_cost(Operation.INSERT) == 3
        assert operation_bit_cost(Operation.DELETE) == 3

    def test_general_q(self):
        assert operation_bit_cost(Operation.SUBSTITUTE, q=3) == 6
        assert operation_bit_cost(Operation.DELETE, q=3) == 5

    def test_q1_rejected(self):
        with pytest.raises(ValueError):
            operation_bit_cost(Operation.SUBSTITUTE, q=1)


class TestErrorBudget:
    def test_single_edit_is_4(self):
        assert error_budget(1) == 4

    def test_two_edits_is_8(self):
        assert error_budget(2) == 8

    def test_restricted_operations(self):
        assert error_budget(2, operations=[Operation.DELETE]) == 6

    def test_zero_errors(self):
        assert error_budget(0) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            error_budget(-1)
        with pytest.raises(ValueError):
            error_budget(1, operations=[])


class TestDeriveThresholds:
    def test_paper_ph_model(self):
        derived = derive_thresholds({"f1": 1, "f2": 1, "f3": 2})
        assert derived.attribute_thresholds == {"f1": 4, "f2": 4, "f3": 8}
        assert derived.record_threshold == 16

    def test_rule_shape(self):
        derived = derive_thresholds({"f1": 1, "f2": 2})
        rule = derived.rule()
        assert isinstance(rule, And)
        assert str(rule) == "[(f1 <= 4) & (f2 <= 8)]"

    def test_single_attribute_rule(self):
        derived = derive_thresholds({"f1": 1})
        assert str(derived.rule()) == "(f1 <= 4)"

    def test_zero_error_attributes_excluded_from_rule(self):
        derived = derive_thresholds({"f1": 1, "f2": 0})
        assert str(derived.rule()) == "(f1 <= 4)"

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="constrains no attribute"):
            derive_thresholds({"f1": 0}).rule()

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            derive_thresholds({})


class TestBudgetSoundness:
    """The derived budgets really are upper bounds on observed distances."""

    @given(
        st.text(alphabet="ABCDEFGHIJ", min_size=3, max_size=12),
        st.integers(1, 3),
        st.integers(0, 5000),
    )
    @settings(max_examples=80)
    def test_budget_covers_random_edit_sequences(self, value, n_errors, seed):
        scheme = QGramScheme(alphabet=TEXT_ALPHABET)
        rng = np.random.default_rng(seed)
        perturbed = value
        for __ in range(n_errors):
            op = ALL_OPERATIONS[int(rng.integers(0, 3))]
            perturbed = apply_operation(perturbed, op, TEXT_ALPHABET, rng)
        distance = bits.distance(bigram_matrix([(value,), (perturbed,)], scheme))
        assert distance <= error_budget(n_errors)
