"""Section 5.4's compound classification rules, end to end.

The paper sketches three compound shapes:

    C1' = [(f1<=t) & (f2<=t)] | [(f3<=t) & (f4<=t)]   two AND structures, OR'd
    C2' = [(f1<=t) | (f2<=t)] & [(f3<=t) | (f4<=t)]   four OR structures, AND'd
    C3' = (f1<=t) & !(f2<=t)                           positive + exclusion

These tests verify the compiled blocking structures and, on small
exhaustively-checkable datasets, that the formulated pairs honour the
compound semantics (membership in either AND structure for C1', in both
OR structures for C2').
"""

import functools

import numpy as np
import pytest

from repro.core.cvector import CVectorEncoder
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.rules.blocking import RuleAwareBlocker, _contained, _LeafPlan, _OrPlan
from repro.rules.parser import parse_rule
from repro.text.alphabet import TEXT_ALPHABET

K = {"f1": 4, "f2": 4, "f3": 4, "f4": 4}
SCHEME = QGramScheme(alphabet=TEXT_ALPHABET)


@pytest.fixture
def encoder():
    return RecordEncoder(
        [CVectorEncoder(20, scheme=SCHEME, seed=s) for s in range(4)],
        names=["f1", "f2", "f3", "f4"],
    )


def _exhaustive_truth(rule, encoder, matrix_a, matrix_b):
    n_a, n_b = matrix_a.n_rows, matrix_b.n_rows
    rows_a = np.repeat(np.arange(n_a), n_b)
    rows_b = np.tile(np.arange(n_b), n_a)
    distances = encoder.attribute_distances(matrix_a, rows_a, matrix_b, rows_b)
    keep = np.asarray(rule.evaluate(distances))
    return set(zip(rows_a[keep].tolist(), rows_b[keep].tolist()))


RECORDS_A = [
    ("ALPHA", "BRAVO", "CHARLIE", "DELTA"),
    ("MIKE", "NOVEMBER", "OSCAR", "PAPA"),
    ("VICTOR", "WHISKEY", "XRAY", "YANKEE"),
]
# Far filler values use distinct bigrams so their c-vectors set ~5 bits
# each (repeated-letter strings like 'ZZZZZZ' collapse to a single bit and
# would be accidentally 'close' to everything).
RECORDS_B = [
    # Satisfies the left conjunct only (f1, f2 close; f3, f4 far).
    ("ALPHA", "BRAVO", "QWZXVK", "PLMKJH"),
    # Satisfies the right conjunct only.
    ("QWZXVK", "PLMKJH", "CHARLIE", "DELTA"),
    # Satisfies neither.
    ("QWZXVK", "PLMKJH", "WSXEDC", "RFVTGB"),
]


class TestCompoundC1Prime:
    RULE = parse_rule("[(f1<=4) & (f2<=4)] | [(f3<=4) & (f4<=4)]")

    def test_two_and_structures_compiled(self, encoder):
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=1)
        assert len(blocker.structures) == 2
        assert blocker.structures[0].attributes == ("f1", "f2")
        assert blocker.structures[1].attributes == ("f3", "f4")

    def test_pair_in_either_structure_is_returned(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        matrix_b = encoder.encode_dataset(RECORDS_B)
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=2)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        assert (0, 0) in found  # left conjunct
        assert (0, 1) in found  # right conjunct
        assert (0, 2) not in found

    def test_matches_subset_of_rule_truth(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        matrix_b = encoder.encode_dataset(RECORDS_B)
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=3)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        truth = _exhaustive_truth(self.RULE, encoder, matrix_a, matrix_b)
        assert found <= truth


class TestCompoundC2Prime:
    RULE = parse_rule("[(f1<=4) | (f2<=4)] & [(f3<=4) | (f4<=4)]")

    def test_four_or_structures_compiled(self, encoder):
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=4)
        assert len(blocker.structures) == 4

    def test_requires_membership_in_both_or_blocks(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        matrix_b = encoder.encode_dataset(RECORDS_B)
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=5)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        # (0,0) satisfies only the first OR block; (0,1) only the second.
        assert (0, 0) not in found
        assert (0, 1) not in found

    def test_pair_satisfying_both_blocks_found(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        both = [("ALPHA", "QQQQQQ", "CHARLIE", "WWWWWW")]  # f1 and f3 close
        matrix_b = encoder.encode_dataset(both)
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=6)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        assert (0, 0) in set(zip(rows_a.tolist(), rows_b.tolist()))


class TestMixedAndWithOrChild:
    """The paper's C2 from the experiments: [(f1 & f2)] | f3 nests an AND
    structure beside a bare comparison under one OR."""

    RULE = parse_rule("[(f1<=4) & (f2<=4)] | (f3<=4)")

    def test_structures(self, encoder):
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=7)
        assert len(blocker.structures) == 2
        # Definition 5: both arms share the OR's L.
        assert blocker.structures[0].n_tables == blocker.structures[1].n_tables

    def test_semantics(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        matrix_b = encoder.encode_dataset(RECORDS_B)
        blocker = RuleAwareBlocker(self.RULE, encoder, k=K, seed=8)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        assert (0, 0) in found  # via the AND arm
        assert (0, 1) in found  # via the f3 arm


class TestNotOverCompound:
    """NOT over a compound child: exclusion by the whole sub-plan."""

    RULE = parse_rule("(f1<=4) & !((f3<=4) | (f4<=4))")

    def test_compiles_and_excludes(self, encoder):
        matrix_a = encoder.encode_dataset(RECORDS_A)
        matrix_b = encoder.encode_dataset(
            [
                # f1 close but f3 close too -> the NOT sub-plan excludes it.
                ("ALPHA", "QWZXVK", "CHARLIE", "WSXEDC"),
                # f1 close, f3 and f4 far -> kept.
                ("ALPHA", "QWZXVK", "PLMKJH", "RFVTGB"),
            ]
        )
        # NOT exclusion is membership-based: with a small K, pairs just
        # above the threshold still collide in the exclusion structure and
        # get over-excluded.  A selective K keeps the exclusion sharp.
        sharp_k = {name: 10 for name in K}
        blocker = RuleAwareBlocker(self.RULE, encoder, k=sharp_k, seed=9)
        blocker.index(matrix_a)
        rows_a, rows_b, __ = blocker.match(matrix_b)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        assert (0, 0) not in found
        assert (0, 1) in found


def _members_by_numpy_sets(plan, matrix_b):
    """The plan's formulated pairs recomputed with numpy's set routines."""
    if isinstance(plan, _LeafPlan):
        return plan.members(matrix_b)
    if isinstance(plan, _OrPlan):
        arms = [_members_by_numpy_sets(child, matrix_b) for child in plan.children]
        return functools.reduce(np.union1d, arms)
    out = _members_by_numpy_sets(plan.positives[0], matrix_b)
    for positive in plan.positives[1:]:
        out = np.intersect1d(out, _members_by_numpy_sets(positive, matrix_b))
    for negative in plan.negatives:
        out = np.setdiff1d(out, _members_by_numpy_sets(negative, matrix_b))
    return out


class TestSortMergePlanAlgebra:
    """Union, intersection and difference of formulated-pair sets are
    sort-merge operations on sorted unique arrays; numpy's set routines are
    the oracle, on every compound shape above."""

    RULES = [
        TestCompoundC1Prime.RULE,
        TestCompoundC2Prime.RULE,
        parse_rule("(f1<=4) & !(f2<=4)"),
        TestMixedAndWithOrChild.RULE,
        TestNotOverCompound.RULE,
    ]

    @pytest.mark.parametrize("rule", RULES, ids=str)
    def test_members_equal_numpy_set_algebra(self, rule, encoder):
        rng = np.random.default_rng(21)
        n_words = (encoder.total_bits + 63) // 64
        words_a = rng.integers(0, 2**63, size=(150, n_words)).astype(np.uint64)
        words_a[:, -1] &= np.uint64((1 << (encoder.total_bits % 64)) - 1)
        # B repeats A's rows with one word's low bits flipped here and there,
        # so pairs collide in some attributes' tables and not in others.
        words_b = words_a[rng.integers(0, 150, size=120)]
        words_b[:, 0] ^= rng.integers(0, 2**20, size=120).astype(np.uint64) & np.uint64(0x5A5A5)
        matrix_a = BitMatrix(words_a, encoder.total_bits)
        matrix_b = BitMatrix(words_b, encoder.total_bits)
        blocker = RuleAwareBlocker(rule, encoder, k=K, seed=11)
        blocker.index(matrix_a)
        got = blocker._plan.members(matrix_b)
        want = _members_by_numpy_sets(blocker._plan, matrix_b)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert 0 < got.size < 150 * 120
        rows_a, rows_b = blocker.candidate_pairs(matrix_b)
        np.testing.assert_array_equal(rows_a * 120 + rows_b, want)

    def test_contained_handles_empty_and_out_of_range(self):
        members = np.array([2, 5, 9], dtype=np.int64)
        values = np.array([0, 2, 3, 9, 10, 99], dtype=np.int64)
        assert _contained(values, members).tolist() == [False, True, False, True, False, False]
        assert _contained(values, members[:0]).tolist() == [False] * 6
        assert _contained(values[:0], members).tolist() == []
