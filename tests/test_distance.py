"""Tests for repro.hamming.distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamming.distance import (
    hamming_packed,
    jaccard_distance_sets,
    masked_hamming_rows,
    verify_pairs,
)
from tests.bits import row_int


class TestHammingPacked:
    def test_rowwise(self):
        a = np.asarray([[0b1010, 0], [0b1111, 1]], dtype=np.uint64)
        b = np.asarray([[0b0110, 0], [0b1111, 0]], dtype=np.uint64)
        assert hamming_packed(a, b).tolist() == [2, 1]

    def test_broadcast_single_row(self):
        a = np.asarray([0b1, 0], dtype=np.uint64)
        b = np.asarray([[0b0, 0], [0b1, 1]], dtype=np.uint64)
        assert hamming_packed(a, b).tolist() == [1, 1]


class TestVerifyPairs:
    @pytest.fixture
    def words(self):
        rng = np.random.default_rng(3)
        return rng.integers(0, 2**63, size=(2, 9, 2)).astype(np.uint64)

    @pytest.mark.parametrize("n_b", [9, np.int64(9), np.uint32(9)], ids=type)
    def test_encoded_pairs_take_any_integer_scalar(self, words, n_b):
        words_a, words_b = words
        rows_a = np.repeat(np.arange(9), 9)
        rows_b = np.tile(np.arange(9), 9)
        threshold = int(np.median(hamming_packed(words_a[rows_a], words_b[rows_b])))
        want = verify_pairs(words_a, words_b, (rows_a, rows_b), threshold)
        got = verify_pairs(words_a, words_b, (rows_a * 9 + rows_b, n_b), threshold)
        assert 0 < want[0].size < 81
        for have, expected in zip(got, want):
            assert have.dtype == expected.dtype == np.int64
            np.testing.assert_array_equal(have, expected)


class TestJaccard:
    def test_paper_jones_jonas_example(self):
        # Section 5.1: u_J('JONES', 'JONAS') ~= 0.667 on bigram sets.
        from repro.core.qgram import qgram_index_set

        u1 = qgram_index_set("JONES")
        u2 = qgram_index_set("JONAS")
        assert jaccard_distance_sets(u1, u2) == pytest.approx(2 / 3, abs=1e-3)

    def test_paper_washington_example(self):
        # Same single-substitution error, longer string: distance shrinks.
        from repro.core.qgram import qgram_index_set

        u1 = qgram_index_set("WASHINGTON")
        u2 = qgram_index_set("WASHANGTON")
        assert jaccard_distance_sets(u1, u2) == pytest.approx(0.364, abs=1e-2)

    def test_empty_sets(self):
        assert jaccard_distance_sets(set(), set()) == 0.0

    def test_disjoint(self):
        assert jaccard_distance_sets({1}, {2}) == 1.0

    def test_identical(self):
        assert jaccard_distance_sets({1, 2}, {1, 2}) == 0.0


class TestMaskedHammingRows:
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=190),
        st.integers(min_value=1, max_value=190),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_matches_slice_reference(self, n_rows, start, width, seed):
        n_bits = 192
        stop = min(start + width, n_bits)
        if stop <= start:
            stop = start + 1
        rng = np.random.default_rng(seed)
        words_a = rng.integers(0, 2**63, size=(n_rows, 3), dtype=np.int64).astype(np.uint64)
        words_b = rng.integers(0, 2**63, size=(n_rows, 3), dtype=np.int64).astype(np.uint64)
        rows = np.arange(n_rows)
        got = masked_hamming_rows(words_a, rows, words_b, rows, start, stop)
        mask = (1 << stop) - (1 << start)
        for i in range(n_rows):
            expected = ((row_int(words_a[i]) ^ row_int(words_b[i])) & mask).bit_count()
            assert got[i] == expected

    def test_word_aligned_range(self):
        words = np.asarray([[np.uint64(0xFFFFFFFFFFFFFFFF), np.uint64(0)]], dtype=np.uint64)
        zeros = np.zeros_like(words)
        rows = np.asarray([0])
        assert masked_hamming_rows(words, rows, zeros, rows, 0, 64).tolist() == [64]
        assert masked_hamming_rows(words, rows, zeros, rows, 64, 128).tolist() == [0]

    def test_row_blocks_match_one_sweep(self, monkeypatch):
        # More pairs than one cache block, and a ragged last block.
        from repro.hamming import distance

        rng = np.random.default_rng(5)
        words_a = rng.integers(0, 2**63, size=(40, 3), dtype=np.int64).astype(np.uint64)
        words_b = rng.integers(0, 2**63, size=(50, 3), dtype=np.int64).astype(np.uint64)
        rows_a = rng.integers(0, 40, size=1000)
        rows_b = rng.integers(0, 50, size=1000)
        one_sweep = masked_hamming_rows(words_a, rows_a, words_b, rows_b, 37, 150)
        monkeypatch.setattr(distance, "DEFAULT_BLOCK_ROWS", 96)
        blocked = masked_hamming_rows(words_a, rows_a, words_b, rows_b, 37, 150)
        assert blocked.dtype == np.int64
        assert blocked.tolist() == one_sweep.tolist()
        empty = np.empty(0, dtype=np.int64)
        assert masked_hamming_rows(words_a, empty, words_b, empty, 0, 64).size == 0

    def test_invalid_range(self):
        words = np.zeros((1, 1), dtype=np.uint64)
        with pytest.raises(ValueError):
            masked_hamming_rows(words, np.asarray([0]), words, np.asarray([0]), 5, 5)

    def test_stop_beyond_packed_width(self):
        words = np.zeros((1, 2), dtype=np.uint64)
        rows = np.asarray([0])
        with pytest.raises(ValueError, match="exceeds the packed width"):
            masked_hamming_rows(words, rows, words, rows, 0, 129)

    def test_stop_checked_against_narrower_side(self):
        wide = np.zeros((1, 3), dtype=np.uint64)
        narrow = np.zeros((1, 2), dtype=np.uint64)
        rows = np.asarray([0])
        with pytest.raises(ValueError, match="exceeds the packed width"):
            masked_hamming_rows(wide, rows, narrow, rows, 0, 160)

    def test_row_length_mismatch(self):
        words = np.zeros((3, 1), dtype=np.uint64)
        with pytest.raises(ValueError, match="parallel arrays"):
            masked_hamming_rows(
                words, np.asarray([0, 1]), words, np.asarray([0, 1, 2]), 0, 64
            )
