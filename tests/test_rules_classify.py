"""Tests for repro.rules.classify — the lazy rule classifier.

The oracle everywhere is the eager three-liner the classifier replaced:
``encoder.attribute_distances`` of every candidate, ``rule.evaluate`` on
them, filter.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cvector import CVectorEncoder
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import DEFAULT_BLOCK_ROWS
from repro.rules.ast import And, Comparison, Not, Or, RuleError
from repro.rules.classify import classify_pairs
from repro.rules.parser import parse_rule

# Layouts that sit inside one word (a, b), straddle two word boundaries (c),
# end exactly on one (d: bits 128..192) and start on one (e).
WIDTHS = {"a": 14, "b": 19, "c": 95, "d": 64, "e": 9}
NCVR_NAMES = ["FirstName", "LastName", "Address", "Town"]
NCVR_K = {"FirstName": 5, "LastName": 5, "Address": 10}
ENCODER = RecordEncoder(
    [CVectorEncoder(m, seed=i) for i, m in enumerate(WIDTHS.values())], names=list(WIDTHS)
)


def _random_matrix(rng: np.random.Generator, n_rows: int) -> BitMatrix:
    n_bits = ENCODER.total_bits
    words = rng.integers(0, 2**63, size=(n_rows, (n_bits + 63) // 64)).astype(np.uint64)
    # Sparse-ish rows, so thresholds well under the width still accept pairs.
    words &= rng.integers(0, 2**63, size=words.shape).astype(np.uint64)
    words[:, -1] &= np.uint64((1 << (n_bits % 64)) - 1)
    return BitMatrix(words, n_bits)


def _eager(rule, matrix_a, rows_a, matrix_b, rows_b):
    distances = ENCODER.attribute_distances(matrix_a, rows_a, matrix_b, rows_b)
    accepted = np.asarray(rule.evaluate(distances))
    kept = {name: dist[accepted] for name, dist in distances.items()}
    return rows_a[accepted], rows_b[accepted], kept


_COMPARISON = st.builds(
    Comparison,
    st.sampled_from(list(WIDTHS)),
    st.one_of(st.integers(0, 40), st.floats(0, 40, allow_nan=False)),
)
_RULE = st.recursive(
    _COMPARISON,
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=3).map(And),
        st.lists(children, min_size=2, max_size=3).map(Or),
        children.map(Not),
    ),
    max_leaves=7,
)
_N_CANDIDATES = st.one_of(
    st.sampled_from([0, 1, DEFAULT_BLOCK_ROWS - 1, DEFAULT_BLOCK_ROWS, DEFAULT_BLOCK_ROWS + 1]),
    st.integers(2, 300),
)


class TestLazyEqualsEager:
    @settings(max_examples=60, deadline=None)
    @given(_RULE, _N_CANDIDATES, st.integers(0, 2**32 - 1))
    def test_accepted_rows_and_distances(self, rule, n_candidates, seed):
        rng = np.random.default_rng(seed)
        matrix_a, matrix_b = _random_matrix(rng, 40), _random_matrix(rng, 30)
        rows_a = rng.integers(0, 40, size=n_candidates)
        rows_b = rng.integers(0, 30, size=n_candidates)
        counters: dict[str, float] = {}
        got_a, got_b, got = classify_pairs(
            rule, ENCODER, matrix_a, rows_a, matrix_b, rows_b, counters
        )
        if n_candidates == 0:
            assert (got_a.size, got_b.size, got) == (0, 0, {})
            assert counters == {"classify_distance_rows": 0.0}
            return
        want_a, want_b, want = _eager(rule, matrix_a, rows_a, matrix_b, rows_b)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)
        assert list(got) == list(want) == list(WIDTHS)
        for name in want:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name])
        assert counters["classify_distance_rows"] <= n_candidates * len(rule.attributes())

    def test_operand_order_does_not_change_the_verdict(self):
        # "c" touches three words, "a" one: the classifier asks "a" first
        # whichever way the rule is written.
        rng = np.random.default_rng(5)
        matrix_a, matrix_b = _random_matrix(rng, 50), _random_matrix(rng, 50)
        rows_a, rows_b = rng.integers(0, 50, size=(2, 4000))
        results = []
        for text in ("(c<=22) & (a<=3)", "(a<=3) & (c<=22)"):
            counters: dict[str, float] = {}
            out = classify_pairs(
                parse_rule(text), ENCODER, matrix_a, rows_a, matrix_b, rows_b, counters
            )
            results.append((out[0].tolist(), out[1].tolist(), counters))
        assert results[0] == results[1]
        assert 0 < len(results[0][0]) < 4000


class TestDistanceRowsCount:
    def test_conjunction_measures_the_second_predicate_on_survivors_only(self):
        rng = np.random.default_rng(11)
        matrix_a, matrix_b = _random_matrix(rng, 60), _random_matrix(rng, 60)
        rows_a, rows_b = rng.integers(0, 60, size=(2, 5000))
        first = ENCODER.attribute_distances(matrix_a, rows_a, matrix_b, rows_b)["a"] <= 3
        assert 0 < first.sum() < rows_a.size  # the first predicate rejects something
        counters: dict[str, float] = {}
        classify_pairs(
            parse_rule("(a<=3) & (b<=5)"), ENCODER, matrix_a, rows_a, matrix_b, rows_b, counters
        )
        assert counters["classify_distance_rows"] == rows_a.size + first.sum()
        assert counters["classify_distance_rows"] < rows_a.size * 2

    def test_repeated_attribute_is_measured_once_per_pair(self):
        rng = np.random.default_rng(12)
        matrix_a, matrix_b = _random_matrix(rng, 60), _random_matrix(rng, 60)
        rows_a, rows_b = rng.integers(0, 60, size=(2, 3000))
        counters: dict[str, float] = {}
        classify_pairs(
            parse_rule("(a<=2) | ((a<=5) & (b<=6)) | !(a<=9)"),
            ENCODER, matrix_a, rows_a, matrix_b, rows_b, counters,
        )
        assert counters["classify_distance_rows"] <= rows_a.size * 2

    def test_rule_aware_link_reports_the_count(self, small_ph_problem):
        rule = parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)")

        def link():
            linker = CompactHammingLinker.rule_aware(
                rule, k=NCVR_K, attribute_names=NCVR_NAMES, seed=3
            )
            return linker.link(small_ph_problem.dataset_a, small_ph_problem.dataset_b)

        result = link()
        rows = result.counters["classify_distance_rows"]
        assert result.n_candidates <= rows < result.n_candidates * 3
        assert link().counters["classify_distance_rows"] == rows


class TestValidation:
    def test_unknown_attribute_raises_before_any_distance(self):
        rule = parse_rule("(a<=3) & (nope<=2)")
        with pytest.raises(RuleError) as eager:
            rule.evaluate({"a": np.zeros(1, dtype=np.int64)})
        # No matrices at all: the names are checked before anything is measured.
        rows = np.zeros(1, dtype=np.int64)
        with pytest.raises(RuleError) as lazy:
            classify_pairs(rule, ENCODER, None, rows, None, rows)
        assert str(lazy.value) == str(eager.value)

    def test_empty_candidates_come_back_as_given(self):
        rng = np.random.default_rng(0)
        matrix = _random_matrix(rng, 4)
        empty = np.empty(0, dtype=np.int64)
        out_a, out_b, distances = classify_pairs(
            parse_rule("(a<=3)"), ENCODER, matrix, empty, matrix, empty
        )
        assert out_a.dtype == out_b.dtype == np.int64
        assert (out_a.size, out_b.size, distances) == (0, 0, {})

    def test_no_accepted_pair_keeps_every_attribute_name(self):
        rng = np.random.default_rng(1)
        matrix_a, matrix_b = _random_matrix(rng, 8), _random_matrix(rng, 8)
        rows = np.arange(8)
        out_a, __, distances = classify_pairs(
            parse_rule("(c<=0) & !(c<=0)"), ENCODER, matrix_a, rows, matrix_b, rows
        )
        assert out_a.size == 0
        assert list(distances) == list(WIDTHS)
        assert all(d.size == 0 and d.dtype == np.int64 for d in distances.values())


def _arrays_held_by_cycles() -> list[np.ndarray]:
    """Arrays referenced from garbage only the cyclic collector can free."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        return [
            referent
            for garbage in gc.garbage
            for referent in gc.get_referents(garbage)
            if isinstance(referent, np.ndarray)
        ]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_rule_aware_links_leave_no_array_in_a_reference_cycle(small_ph_problem):
    # Candidate-sized arrays caught in a cycle wait for the cyclic collector:
    # a leak of megabytes per link in a long-running process.
    rules = [
        parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)"),
        parse_rule("((FirstName<=4) & (LastName<=4)) | (Address<=6)"),
    ]
    gc.collect()
    gc.disable()
    try:
        for i in range(10):
            linker = CompactHammingLinker.rule_aware(
                rules[i % 2], k=NCVR_K, attribute_names=NCVR_NAMES, seed=i
            )
            result = linker.link(small_ph_problem.dataset_a, small_ph_problem.dataset_b)
            assert result.n_matches > 0
            del linker, result
        assert _arrays_held_by_cycles() == []
    finally:
        gc.enable()
