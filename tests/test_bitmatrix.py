"""Tests for repro.hamming.bitmatrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hamming.bitmatrix import BitMatrix, concat_matrices, scatter_bits
from repro.hamming.bitvector import BitVector
from repro.hamming.distance import DEFAULT_BLOCK_ROWS


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
        assert m.popcounts().tolist() == [0, 0, 0]

    def test_from_vectors_roundtrip(self):
        vectors = [BitVector.from_indices(90, [i, 64 + i]) for i in range(5)]
        m = BitMatrix.from_vectors(vectors)
        for i, v in enumerate(vectors):
            assert m.row(i) == v

    def test_from_vectors_width_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix.from_vectors([BitVector(8), BitVector(9)])

    def test_from_index_sets(self):
        m = BitMatrix.from_index_sets([[0, 5], [1]], 8)
        assert m.row(0).indices() == [0, 5]
        assert m.row(1).indices() == [1]

    def test_word_shape_validation(self):
        with pytest.raises(ValueError):
            BitMatrix(np.zeros((2, 3), dtype=np.uint64), 70)  # 70 bits needs 2 words


class TestScatter:
    def test_scatter_sets_exact_positions(self):
        m = scatter_bits(3, 130, np.asarray([0, 0, 2]), np.asarray([0, 129, 64]))
        assert m.row(0).indices() == [0, 129]
        assert m.row(1).indices() == []
        assert m.row(2).indices() == [64]

    def test_scatter_duplicates_idempotent(self):
        m = scatter_bits(1, 8, np.asarray([0, 0]), np.asarray([3, 3]))
        assert m.row(0).count() == 1

    def test_scatter_bounds_checked(self):
        with pytest.raises(IndexError):
            scatter_bits(1, 8, np.asarray([0]), np.asarray([8]))
        with pytest.raises(IndexError):
            scatter_bits(1, 8, np.asarray([1]), np.asarray([0]))

    def test_scatter_empty(self):
        m = scatter_bits(2, 8, np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert m.popcounts().tolist() == [0, 0]


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
        m = BitMatrix.zeros(2, 70)
        m.set_bit(1, 69)
        assert m.get_bit(1, 69) == 1
        assert m.get_bit(0, 69) == 0

    def test_bounds(self):
        m = BitMatrix.zeros(1, 8)
        with pytest.raises(IndexError):
            m.get_bit(0, 8)
        with pytest.raises(IndexError):
            m.set_bit(0, -1)


class TestColumns:
    def test_columns_match_per_row_bits(self, matrix):
        picks = [0, 63, 64, 99, 1]
        cols = matrix.columns(picks)
        assert cols.shape == (matrix.n_rows, len(picks))
        for i in range(matrix.n_rows):
            row = matrix.row(i)
            assert cols[i].tolist() == [row[b] for b in picks]

    def test_columns_out_of_range(self, matrix):
        with pytest.raises(IndexError):
            matrix.columns([100])


class TestHamming:
    def test_hamming_to_matches_rowwise(self, matrix):
        probe = matrix.row(3)
        dists = matrix.hamming_to(probe)
        for i in range(matrix.n_rows):
            assert dists[i] == matrix.row(i).hamming(probe)

    def test_hamming_rows_batch(self, matrix, rng):
        rows_a = rng.integers(0, matrix.n_rows, size=15)
        rows_b = rng.integers(0, matrix.n_rows, size=15)
        dists = matrix.hamming_rows(rows_a, matrix, rows_b)
        for a, b, d in zip(rows_a, rows_b, dists):
            assert d == matrix.row(int(a)).hamming(matrix.row(int(b)))

    def test_width_mismatch(self, matrix):
        with pytest.raises(ValueError):
            matrix.hamming_to(BitVector(8))


class TestConcat:
    @given(st.integers(1, 70), st.integers(1, 70))
    @settings(max_examples=20)
    def test_concat_widths(self, w1, w2):
        m1 = BitMatrix.from_vectors([BitVector.from_indices(w1, [w1 - 1])] * 2)
        m2 = BitMatrix.from_vectors([BitVector.from_indices(w2, [0])] * 2)
        out = m1.concat(m2)
        assert out.n_bits == w1 + w2
        assert out.row(0).indices() == [w1 - 1, w1]

    def test_concat_matrices_multiway(self, rng):
        parts = [random_matrix(rng, 5, w) for w in (15, 15, 68, 22)]
        combined = concat_matrices(parts)
        assert combined.n_bits == 120
        # Row-wise equality against BitVector concat.
        for i in range(5):
            expected = parts[0].row(i)
            for part in parts[1:]:
                expected = expected.concat(part.row(i))
            assert combined.row(i) == expected

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            BitMatrix.zeros(2, 8).concat(BitMatrix.zeros(3, 8))
