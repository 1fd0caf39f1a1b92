"""Tests for repro.data.perturb."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.perturb import (
    ALL_OPERATIONS,
    Operation,
    PerturbationScheme,
    apply_operation,
    scheme_ph,
    scheme_pl,
)
from repro.data.schema import Schema
from repro.text.alphabet import TEXT_ALPHABET
from repro.text.edit_distance import levenshtein

WORDS = st.text(alphabet="ABCDEFG", min_size=1, max_size=12)


class TestApplyOperation:
    @given(WORDS, st.integers(0, 1000))
    def test_substitute_is_one_edit(self, value, seed):
        rng = np.random.default_rng(seed)
        out = apply_operation(value, Operation.SUBSTITUTE, TEXT_ALPHABET, rng)
        assert len(out) == len(value)
        assert levenshtein(value, out) == 1

    @given(WORDS, st.integers(0, 1000))
    def test_insert_is_one_edit(self, value, seed):
        rng = np.random.default_rng(seed)
        out = apply_operation(value, Operation.INSERT, TEXT_ALPHABET, rng)
        assert len(out) == len(value) + 1
        assert levenshtein(value, out) == 1

    @given(WORDS, st.integers(0, 1000))
    def test_delete_is_one_edit(self, value, seed):
        rng = np.random.default_rng(seed)
        out = apply_operation(value, Operation.DELETE, TEXT_ALPHABET, rng)
        assert len(out) == len(value) - 1
        assert levenshtein(value, out) == 1

    def test_empty_string_degrades_to_insert(self):
        rng = np.random.default_rng(0)
        for op in (Operation.DELETE, Operation.SUBSTITUTE):
            out = apply_operation("", op, TEXT_ALPHABET, rng)
            assert len(out) == 1

    @given(WORDS, st.integers(0, 200))
    def test_never_inserts_blank_or_pad(self, value, seed):
        rng = np.random.default_rng(seed)
        out = apply_operation(value, Operation.INSERT, TEXT_ALPHABET, rng)
        inserted = set(out) - set(value)
        assert " " not in inserted and "_" not in inserted


class TestSchemes:
    @pytest.fixture
    def schema(self):
        return Schema.of("f1", "f2", "f3", "f4")

    @pytest.fixture
    def values(self):
        return ("JONES", "SMITH", "12 MAIN ST APT 4", "BOONE")

    def test_pl_perturbs_exactly_one_attribute(self, schema, values):
        rng = np.random.default_rng(1)
        perturbed, log = scheme_pl().perturb(values, schema, rng)
        assert len(log) == 1
        changed = [
            i for i in range(4) if perturbed[i] != values[i]
        ]
        assert len(changed) == 1
        assert schema[changed[0]].name == log[0].attribute

    def test_pl_attribute_choice_varies(self, schema, values):
        rng = np.random.default_rng(2)
        attrs = {
            scheme_pl().perturb(values, schema, rng)[1][0].attribute
            for i in range(60)
        }
        assert len(attrs) == 4  # all attributes eventually chosen

    def test_ph_distribution(self, schema, values):
        rng = np.random.default_rng(3)
        perturbed, log = scheme_ph().perturb(values, schema, rng)
        by_attr = {}
        for entry in log:
            by_attr[entry.attribute] = by_attr.get(entry.attribute, 0) + 1
        assert by_attr == {"f1": 1, "f2": 1, "f3": 2}
        assert perturbed[3] == values[3]  # f4 untouched

    def test_ph_edit_distances_within_rule_thresholds(self, schema, values):
        """PH produces <= 1 edit on f1/f2 and <= 2 on f3 (rule C1's basis)."""
        rng = np.random.default_rng(4)
        for i in range(30):
            perturbed, __ = scheme_ph().perturb(values, schema, rng)
            assert levenshtein(values[0], perturbed[0]) <= 1
            assert levenshtein(values[1], perturbed[1]) <= 1
            assert levenshtein(values[2], perturbed[2]) <= 2

    def test_restricted_operations(self, schema, values):
        rng = np.random.default_rng(5)
        scheme = scheme_pl(operations=[Operation.DELETE])
        __, log = scheme.perturb(values, schema, rng)
        assert log[0].operation is Operation.DELETE

    def test_scheme_validation(self):
        with pytest.raises(ValueError):
            PerturbationScheme(name="bad")
        with pytest.raises(ValueError):
            PerturbationScheme(name="bad", random_single=True, ops_per_attribute={0: 1})
        with pytest.raises(ValueError):
            PerturbationScheme(name="bad", ops_per_attribute={0: 0})

    def test_out_of_range_attribute(self):
        schema2 = Schema.of("f1", "f2")
        rng = np.random.default_rng(6)
        scheme = PerturbationScheme(name="x", ops_per_attribute={5: 1})
        with pytest.raises(ValueError, match="attribute index"):
            scheme.perturb(("A", "B"), schema2, rng)

    def test_total_operations(self):
        assert scheme_pl().total_operations(4) == 1
        assert scheme_ph().total_operations(4) == 4

    def test_returns_a_values_tuple(self, schema, values):
        rng = np.random.default_rng(7)
        perturbed, __ = scheme_pl().perturb(values, schema, rng)
        assert type(perturbed) is tuple and len(perturbed) == len(values)
