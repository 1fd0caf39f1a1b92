"""Tests for repro.hamming.bitmatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cvector import CVectorEncoder
from repro.core.encoder import RecordEncoder
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.distance import DEFAULT_BLOCK_ROWS, hamming_packed
from tests.bits import row_int, set_bits


def random_matrix(rng, n_rows, n_bits, density=0.3):
    rows, bits = [], []
    for i in range(n_rows):
        for b in range(n_bits):
            if rng.random() < density:
                rows.append(i)
                bits.append(b)
    return scatter_bits(n_rows, n_bits, np.asarray(rows), np.asarray(bits))


@pytest.fixture
def matrix(rng):
    return random_matrix(rng, 20, 100)


class TestConstruction:
    def test_zeros(self):
        m = BitMatrix.zeros(3, 70)
        assert m.n_rows == 3
        assert m.n_bits == 70
        assert not m.words.any() and m.words.shape == (3, 2)

    def test_word_shape_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 3), dtype=np.uint64), 70)  # 70 bits needs 2 words


class TestScatter:
    def test_scatter_sets_exact_positions(self):
        m = scatter_bits(3, 130, np.asarray([0, 0, 2]), np.asarray([0, 129, 64]))
        assert [set_bits(m, i) for i in range(3)] == [[0, 129], [], [64]]

    def test_scatter_duplicates_idempotent(self):
        m = scatter_bits(1, 8, np.asarray([0, 0]), np.asarray([3, 3]))
        assert m.words.tolist() == [[1 << 3]]

    def test_scatter_bounds_checked(self):
        with pytest.raises(IndexError):
            scatter_bits(1, 8, np.asarray([0]), np.asarray([8]))
        with pytest.raises(IndexError):
            scatter_bits(1, 8, np.asarray([1]), np.asarray([0]))

    def test_scatter_empty(self):
        m = scatter_bits(2, 8, np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert m.words.tolist() == [[0], [0]]


    @pytest.mark.parametrize("n_rows", [1, DEFAULT_BLOCK_ROWS - 1, DEFAULT_BLOCK_ROWS,
                                        DEFAULT_BLOCK_ROWS + 1, 2 * DEFAULT_BLOCK_ROWS + 3])
    @pytest.mark.parametrize("n_bits", [8, 64, 130])
    def test_scatter_equals_bitwise_or_at_across_row_blocks(self, rng, n_rows, n_bits):
        """Unsorted rows, repeated positions, a row count either side of the block size."""
        rows = rng.integers(0, n_rows, size=500)
        rows[:3] = [n_rows - 1, 0, n_rows - 1]
        bits = rng.integers(0, n_bits, size=500)
        rows, bits = np.r_[rows, rows[:50]], np.r_[bits, bits[:50]]
        expected = np.zeros((n_rows, (n_bits + 63) // 64), dtype=np.uint64)
        masks = np.uint64(1) << (bits % 64).astype(np.uint64)
        np.bitwise_or.at(expected, (rows, bits // 64), masks)
        assert np.array_equal(scatter_bits(n_rows, n_bits, rows, bits).words, expected)


class TestBitAccess:
    def test_get_set_bit(self):
        """Bit ``j`` of a row lives in word ``j // 64`` at offset ``j % 64``."""
        words = np.zeros((2, 2), dtype=np.uint64)
        words[1, 1] = 1 << 5
        m = BitMatrix(words, 70)
        assert m.columns([69, 5, 64]).tolist() == [[0, 0, 0], [1, 0, 0]]
        assert scatter_bits(2, 70, np.asarray([1]), np.asarray([69])) == m

    def test_bounds(self):
        m = BitMatrix.zeros(1, 8)
        with pytest.raises(IndexError):
            m.columns([8])
        with pytest.raises(IndexError):
            m.columns([-1])


class TestColumns:
    def test_columns_match_per_row_bits(self, matrix):
        picks = [0, 63, 64, 99, 1]
        cols = matrix.columns(picks)
        assert cols.shape == (matrix.n_rows, len(picks))
        for i in range(matrix.n_rows):
            row = row_int(matrix.words[i])
            assert cols[i].tolist() == [row >> b & 1 for b in picks]

    def test_columns_out_of_range(self, matrix):
        with pytest.raises(IndexError):
            matrix.columns([100])


class TestHamming:
    def test_hamming_to_matches_rowwise(self, matrix):
        """One row broadcast against every row."""
        probe = matrix.words[3]
        dists = hamming_packed(probe, matrix.words)
        for i in range(matrix.n_rows):
            assert dists[i] == (row_int(matrix.words[i]) ^ row_int(probe)).bit_count()

    def test_hamming_rows_batch(self, matrix, rng):
        rows_a = rng.integers(0, matrix.n_rows, size=15)
        rows_b = rng.integers(0, matrix.n_rows, size=15)
        dists = hamming_packed(matrix.words[rows_a], matrix.words[rows_b])
        for a, b, d in zip(rows_a, rows_b, dists):
            assert d == (row_int(matrix.words[a]) ^ row_int(matrix.words[b])).bit_count()

    def test_width_mismatch(self, matrix):
        with pytest.raises(ValueError):
            hamming_packed(matrix.words, BitMatrix.zeros(1, 130).words)


class TestConcat:
    """Record-level rows are attribute-level rows side by side: each column's
    bits shifted by its offset, at any widths (word boundaries included)."""

    @staticmethod
    def concatenated(encoder: RecordEncoder, record) -> int:
        row = 0
        for enc, layout, value in zip(encoder.encoders, encoder.layouts, record):
            row |= row_int(enc.encode_all([value]).words[0]) << layout.offset
        return row

    @given(st.integers(1, 70), st.integers(1, 70))
    @settings(max_examples=20, deadline=None)
    def test_concat_widths(self, w1, w2):
        encoder = RecordEncoder([CVectorEncoder(w1, seed=w1), CVectorEncoder(w2, seed=w2)])
        records = [("JONES", "SMITH"), ("", "WASHINGTON")] * 5  # the batched embed
        matrix = encoder.encode_dataset(records)
        assert matrix.n_bits == w1 + w2
        for row, record in zip(matrix.words, records):
            assert row_int(row) == self.concatenated(encoder, record)

    def test_concat_matrices_multiway(self, ncvr_encoder):
        records = [("JONES", "SMITH", "12 MAIN ST", "BOONE"), ("JONAS", "", "1 OAK AVE", "")]
        matrix = ncvr_encoder.encode_dataset(records * 5)
        assert matrix.n_bits == 120
        for row, record in zip(matrix.words, records * 5):
            assert row_int(row) == self.concatenated(ncvr_encoder, record)
