"""Cross-module invariants, property-based.

These tie the layers together: whatever strings and parameters hypothesis
draws, the structural identities the paper's pipeline relies on must hold.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.minhash import bigram_matrix
from repro.core.cvector import CVectorEncoder, value_bits
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme, qgrams
from repro.hamming.distance import hamming_packed
from repro.hamming.lsh import HammingLSH
from repro.text.alphabet import Alphabet
from repro.text.edit_distance import levenshtein
from tests.bits import distance, reference_words, row_int

WORD = st.text(alphabet="ABCDEFGHIJ", min_size=2, max_size=10)
RECORD = st.tuples(WORD, WORD, WORD)


def _encoder(seed=0):
    return RecordEncoder(
        [CVectorEncoder(12, seed=seed), CVectorEncoder(16, seed=seed + 1),
         CVectorEncoder(20, seed=seed + 2)],
        names=["f1", "f2", "f3"],
    )


class TestEncoderIdentities:
    @given(RECORD, RECORD)
    @settings(max_examples=60)
    def test_record_distance_is_sum_of_attribute_distances(self, rec_a, rec_b):
        """Concatenation makes the record-level Hamming distance decompose
        exactly into per-attribute distances."""
        encoder = _encoder()
        matrix = encoder.encode_dataset([rec_a, rec_b])
        total = hamming_packed(matrix.words[0], matrix.words[1])
        parts = encoder.attribute_distances(
            matrix, np.asarray([0]), matrix, np.asarray([1])
        )
        assert total == sum(int(d[0]) for d in parts.values())

    @given(RECORD)
    @settings(max_examples=30)
    def test_dataset_encoding_equals_single_encoding(self, record):
        encoder = _encoder()
        with mock.patch("repro.core.encoder.SMALL_BATCH_ROWS", 0):  # the batched embed
            words = encoder.encode_dataset([record]).words
        assert np.array_equal(words, reference_words(encoder, [record]))

    @given(WORD, st.integers(0, 50))
    @settings(max_examples=60)
    def test_cvector_popcount_bounded_by_qgrams(self, value, seed):
        """Hashing can only merge q-grams: |ones| <= |U_s|."""
        enc = CVectorEncoder(15, seed=seed)
        ones = row_int(enc.encode_all([value]).words[0]).bit_count()
        assert ones <= len(enc.scheme.index_set(value))


class TestErrorDistanceBounds:
    """The §5.1 bounds, generalised to q = 3 ('hold for any q >= 2')."""

    @given(
        st.text(alphabet="ABCDEFGHIJ", min_size=4, max_size=12),
        st.integers(0, 9),
        st.data(),
    )
    @settings(max_examples=80)
    def test_substitution_bound_2q(self, s, letter_idx, data):
        scheme = QGramScheme(q=3)
        pos = data.draw(st.integers(0, len(s) - 1))
        replacement = "ABCDEFGHIJ"[letter_idx]
        perturbed = s[:pos] + replacement + s[pos + 1 :]
        dist = distance(bigram_matrix([(s,), (perturbed,)], scheme))
        assert dist <= 2 * 3  # alpha = 2q for substitutions

    @given(st.text(alphabet="ABCDEFGHIJ", min_size=4, max_size=12), st.data())
    @settings(max_examples=80)
    def test_delete_bound_2q_minus_1(self, s, data):
        scheme = QGramScheme(q=3)
        pos = data.draw(st.integers(0, len(s) - 1))
        perturbed = s[:pos] + s[pos + 1 :]
        dist = distance(bigram_matrix([(s,), (perturbed,)], scheme))
        assert dist <= 2 * 3 - 1  # alpha = 2q - 1 for delete/insert

    @given(WORD, WORD)
    @settings(max_examples=60)
    def test_hamming_bounded_by_4_times_edit_distance(self, s1, s2):
        """u_H <= alpha * u_E with alpha <= 4 for bigrams (Equation 3)."""
        dist_h = distance(bigram_matrix([(s1,), (s2,)], QGramScheme()))
        dist_e = levenshtein(s1, s2)
        assert dist_h <= 4 * dist_e

    @given(WORD)
    @settings(max_examples=30)
    def test_qgram_count_consistency(self, s):
        scheme = QGramScheme()
        assert scheme.count(s) == len(qgrams(s))


class TestPackedKernelParity:
    """The packed ``bitwise_count`` kernels agree with the per-pair
    integer XOR / popcount reference at word-boundary widths (1 / 63 / 64 /
    65 bits — below, at, and just past one ``uint64`` word)."""

    WIDTHS = (1, 63, 64, 65)
    N_ROWS = 8

    def _pair(self, seed, n_bits):
        from repro.hamming.bitmatrix import scatter_bits

        rng = np.random.default_rng(seed)
        matrices = []
        for __ in range(2):
            mask = rng.random((self.N_ROWS, n_bits)) < 0.4
            rows, bits = np.nonzero(mask)
            matrices.append(scatter_bits(self.N_ROWS, n_bits, rows, bits))
        return matrices

    @given(st.integers(0, 10_000), st.sampled_from(WIDTHS))
    @settings(max_examples=40, deadline=None)
    def test_hamming_packed_matches_bitvector(self, seed, n_bits):
        from repro.hamming.distance import hamming_packed

        matrix_a, matrix_b = self._pair(seed, n_bits)
        got = hamming_packed(matrix_a.words, matrix_b.words)
        want = [
            (row_int(a) ^ row_int(b)).bit_count() for a, b in zip(matrix_a.words, matrix_b.words)
        ]
        assert got.tolist() == want

    @given(st.integers(0, 10_000), st.sampled_from(WIDTHS))
    @settings(max_examples=40, deadline=None)
    def test_hamming_packed_broadcast_row_vs_matrix(self, seed, n_bits):
        """The ``(n_words,)`` vs ``(n, n_words)`` broadcast path."""
        from repro.hamming.distance import hamming_packed

        matrix_a, matrix_b = self._pair(seed, n_bits)
        got = hamming_packed(matrix_a.words[0], matrix_b.words)
        want = [(row_int(matrix_a.words[0]) ^ row_int(b)).bit_count() for b in matrix_b.words]
        assert got.tolist() == want

    @given(st.integers(0, 10_000), st.sampled_from(WIDTHS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_masked_hamming_rows_matches_bit_loop(self, seed, n_bits, data):
        from repro.hamming.distance import masked_hamming_rows

        matrix_a, matrix_b = self._pair(seed, n_bits)
        start = data.draw(st.integers(0, n_bits - 1))
        stop = data.draw(st.integers(start + 1, n_bits))
        rows = np.arange(self.N_ROWS, dtype=np.int64)
        got = masked_hamming_rows(
            matrix_a.words, rows, matrix_b.words, rows, start, stop
        )
        want = [
            sum((row_int(a) ^ row_int(b)) >> bit & 1 for bit in range(start, stop))
            for a, b in zip(matrix_a.words, matrix_b.words)
        ]
        assert got.tolist() == want


class TestBlockKernels:
    """The blocked layers of a cold ``link()`` against their per-element references."""

    #: Short values over three letters repeat within a column; ``""`` and
    #: one-letter values have no bigram.
    COLUMN = st.lists(st.text(alphabet="ABC", max_size=4), min_size=1, max_size=40)

    @given(COLUMN)
    @settings(max_examples=100, deadline=None)
    def test_value_numbering_is_first_occurrence_order(self, values):
        from repro.core.cvector import _number_values

        unique, inverse = _number_values(values)
        assert unique == list(dict.fromkeys(values))
        assert inverse.tolist() == [unique.index(value) for value in values]

    @given(COLUMN, st.integers(0, 50), st.sampled_from([1, 40, 64, 65]))
    @example(["AB", "A"], 0, 40)  # 1 bigram: UniversalHash.apply
    @example(["ABCA", "BCAB", "CABC", "AACC"], 0, 40)  # 12 bigrams: the table
    @settings(max_examples=100, deadline=None)
    def test_tabulated_hash_equals_apply_and_call(self, values, seed, m):
        """Distinct values with at least ``3^2`` bigrams between them are hashed
        through the table of ``g`` over the whole q-gram space, fewer through
        ``UniversalHash.apply``; the value-by-value ``value_bits`` calls ``g`` itself."""
        enc = CVectorEncoder(m, scheme=QGramScheme(alphabet=Alphabet("ABC")), seed=seed)
        space = np.arange(enc.scheme.space_size)
        assert enc.hash_fn.apply(space).tolist() == [enc.hash_fn(int(x)) for x in space]
        words = enc.encode_all(values).words
        assert [row_int(row) for row in words] == [value_bits(enc, 0, v) for v in values]

    @given(st.lists(st.tuples(COLUMN.map("".join), WORD, st.sampled_from(["", "AB", "BA"])),
                    min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_dataset_rows_equal_per_string_encode(self, records):
        encoder = _encoder()
        expected = reference_words(encoder, records)
        assert np.array_equal(encoder.encode_dataset(records).words, expected)

    @pytest.mark.parametrize("n_words", [1, 5])
    @pytest.mark.parametrize("n_pairs", [0, 1, 1 << 15, (1 << 15) + 1])
    def test_blocked_verify_equals_hamming_packed(self, n_pairs, n_words):
        from repro.hamming.distance import hamming_packed, verify_pairs

        rng = np.random.default_rng(n_pairs + n_words)
        n_a, n_b, threshold = 50, 70, 30 * n_words
        words_a = rng.integers(0, 1 << 63, size=(n_a, n_words), dtype=np.uint64)
        words_b = rng.integers(0, 1 << 63, size=(n_b, n_words), dtype=np.uint64)
        rows_a, rows_b = rng.integers(0, n_a, n_pairs), rng.integers(0, n_b, n_pairs)
        dist = hamming_packed(words_a[rows_a], words_b[rows_b])
        keep = dist <= threshold
        assert n_pairs < 2 or 0 < keep.sum() < n_pairs  # the threshold splits the pairs
        for chunk in ((rows_a, rows_b), (rows_a * n_b + rows_b, n_b)):
            got = verify_pairs(words_a, words_b, chunk, threshold)
            assert len(got) == 3
            for have, want in zip(got, (rows_a[keep], rows_b[keep], dist[keep])):
                assert have.dtype == np.int64 and have.tolist() == want.tolist()


class TestLSHInvariants:
    @given(st.integers(0, 10_000), st.integers(2, 12))
    @settings(max_examples=20, deadline=None)
    def test_matches_are_candidate_subset_and_within_threshold(self, seed, k):
        rng = np.random.default_rng(seed)
        from repro.hamming.bitmatrix import scatter_bits

        mask = rng.random((30, 64)) < 0.3
        rows, bits = np.nonzero(mask)
        matrix = scatter_bits(30, 64, rows, bits)
        lsh = HammingLSH(n_bits=64, k=k, threshold=6, n_tables=4, seed=seed)
        lsh.index(matrix)
        cand_a, cand_b = lsh.candidate_pairs(matrix)
        rows_a, rows_b, dists = lsh.match(matrix, matrix)
        candidates = set(zip(cand_a.tolist(), cand_b.tolist()))
        matches = set(zip(rows_a.tolist(), rows_b.tolist()))
        assert matches <= candidates
        assert (dists <= 6).all()

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_streaming_equals_bulk_candidates(self, seed):
        rng = np.random.default_rng(seed)
        from repro.hamming.bitmatrix import BitMatrix, scatter_bits

        mask = rng.random((20, 40)) < 0.3
        rows, bits = np.nonzero(mask)
        matrix = scatter_bits(20, 40, rows, bits)
        bulk = HammingLSH(n_bits=40, k=4, n_tables=3, seed=seed)
        bulk.index(matrix)
        stream = HammingLSH(n_bits=40, k=4, n_tables=3, seed=seed)
        for i in range(20):
            stream.insert_rows(BitMatrix(matrix.words[i : i + 1], 40), [i])
        for got, want in zip(stream.candidate_pairs(matrix), bulk.candidate_pairs(matrix)):
            assert np.array_equal(got, want)
