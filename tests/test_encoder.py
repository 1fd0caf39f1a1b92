"""Tests for repro.core.encoder — record-level c-vector encoding."""

import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.cvector import SMALL_BATCH_ROWS, CVectorEncoder, embed_columns, embed_values
from repro.core.encoder import RecordEncoder
from repro.core.persist import encoder_fingerprint, encoder_to_dict
from repro.core.qgram import QGramScheme
from repro.text.alphabet import TEXT_ALPHABET, Alphabet, AlphabetError

RECORDS = [
    ("JONES", "SMITH", "12 MAIN ST", "BOONE"),
    ("JONAS", "SMITH", "12 MAIN ST", "BOONE"),
    ("MARIA", "GARCIA", "99 OAK AVE APT 3", "DURHAM"),
]


class TestLayout:
    def test_offsets_accumulate(self, ncvr_encoder):
        widths = [lay.width for lay in ncvr_encoder.layouts]
        offsets = [lay.offset for lay in ncvr_encoder.layouts]
        assert widths == [15, 15, 68, 22]
        assert offsets == [0, 15, 30, 98]
        assert ncvr_encoder.total_bits == 120

    def test_layout_lookup(self, ncvr_encoder):
        assert ncvr_encoder.layout("f3").offset == 30
        with pytest.raises(KeyError):
            ncvr_encoder.layout("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            RecordEncoder([CVectorEncoder(5, seed=0)] * 2, names=["a", "a"])

    def test_name_count_mismatch(self):
        with pytest.raises(ValueError):
            RecordEncoder([CVectorEncoder(5, seed=0)], names=["a", "b"])

    def test_empty_encoders_rejected(self):
        with pytest.raises(ValueError):
            RecordEncoder([])


class TestEncode:
    def test_record_vector_is_concatenation(self, ncvr_encoder):
        record = RECORDS[0]
        vector = ncvr_encoder.encode(record)
        assert vector.n_bits == 120
        for layout, enc, value in zip(
            ncvr_encoder.layouts, ncvr_encoder.encoders, record
        ):
            assert vector.slice(layout.offset, layout.stop) == enc.encode(value)

    def test_arity_check(self, ncvr_encoder):
        with pytest.raises(ValueError, match="values"):
            ncvr_encoder.encode(("A", "B"))

    def test_dataset_matrix_matches_per_record(self, ncvr_encoder):
        matrix = ncvr_encoder.encode_dataset(RECORDS)
        for i, record in enumerate(RECORDS):
            assert matrix.row(i) == ncvr_encoder.encode(record)

    def test_dataset_words_match_per_record_on_degenerate_values(self, ncvr_encoder):
        """The identity that makes batched ingest legal: the batch encoder
        and the per-record encoder agree bit for bit, also on empty and
        missing (blanked) values, values shorter than a q-gram and
        repeated rows (interned once by the batch encoder)."""
        rows = [
            ("", "", "", ""),
            ("JONES", "", "12 MAIN ST", ""),
            ("", "SMITH", "", "BOONE"),
            ("A", "B", "1", " "),
            ("JONES", "SMITH", "12 MAIN ST", "BOONE"),
            ("JONES", "SMITH", "12 MAIN ST", "BOONE"),
        ]
        words = ncvr_encoder.encode_dataset(rows).words
        for i, row in enumerate(rows):
            assert np.array_equal(words[i], ncvr_encoder.encode(row).to_packed())

    def test_arity_error_names_the_first_offender(self, ncvr_encoder):
        rows = [RECORDS[0], ("A", "B", "C"), ("A",)]
        with pytest.raises(ValueError, match="record has 3 values, encoder expects 4"):
            ncvr_encoder.encode_dataset(rows)

    def test_non_alphabet_values_rejected_by_both_encoders(self, ncvr_encoder):
        bad = ("JOS\u00c9", "SMITH", "12 MAIN ST", "BOONE")
        with pytest.raises(AlphabetError):
            ncvr_encoder.encode(bad)
        with pytest.raises(AlphabetError):
            ncvr_encoder.encode_dataset([RECORDS[0], bad])

    def test_encode_attribute_column(self, ncvr_encoder):
        matrix = ncvr_encoder.encode_attribute(RECORDS, "f2")
        enc = ncvr_encoder.attribute_encoder("f2")
        for i, record in enumerate(RECORDS):
            assert matrix.row(i) == enc.encode(record[1])

    def test_empty_dataset_rejected(self, ncvr_encoder):
        with pytest.raises(ValueError):
            ncvr_encoder.encode_dataset([])


#: DBLP-like layout: no attribute offset but the first is word-aligned and
#: the 270 bits cross five words.
WIDE_ENCODER = RecordEncoder(
    [
        CVectorEncoder(m, scheme=QGramScheme(alphabet=TEXT_ALPHABET), seed=i)
        for i, m in enumerate((45, 52, 173))
    ]
)
OFFSETS = [layout.offset for layout in WIDE_ENCODER.layouts]
#: Few distinct values per column, so rows repeat them: empty, blank,
#: shorter than a q-gram, and ordinary.
_VALUE = st.sampled_from(["", " ", "A", "Z", "AB", "JONES", "JONAS", "12 MAIN ST", "A A"])


class TestValueGranularEmbedding:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(_VALUE, _VALUE, _VALUE), min_size=1, max_size=12))
    def test_dataset_words_equal_stacked_per_record_vectors(self, rows):
        expected = np.stack([WIDE_ENCODER.encode(row).to_packed() for row in rows])
        stats: dict[str, float] = {}
        assert np.array_equal(WIDE_ENCODER.encode_dataset(rows, stats=stats).words, expected)
        n_unique = sum(len({row[att] for row in rows}) for att in range(3))
        assert stats == {
            "intern_values": 3.0 * len(rows),
            "intern_unique": float(n_unique),
            "intern_hit_rate": 1.0 - n_unique / (3 * len(rows)),
        }

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_distinct_values_straddling_value_blocks(self, monkeypatch, block):
        """Columns larger and smaller than a block, so scatters are shared and split."""
        monkeypatch.setattr("repro.core.cvector.VALUE_BLOCK", block)
        rows = [(f"A{i % 7}", "" if i % 3 else "SMITH", f"{i} MAIN ST") for i in range(11)]
        expected = np.stack([WIDE_ENCODER.encode(row).to_packed() for row in rows])
        assert np.array_equal(WIDE_ENCODER.encode_dataset(rows).words, expected)


#: Padded bigrams and unpadded trigrams over an alphabet with a non-ASCII
#: letter (the tokeniser's UTF-32 path).
_ACCENTED = Alphabet("ABEJNOSÉ _")
ACCENTED_ENCODER = RecordEncoder(
    [
        CVectorEncoder(40, scheme=QGramScheme(alphabet=_ACCENTED, padded=True), seed=5),
        CVectorEncoder(70, scheme=QGramScheme(q=3, alphabet=_ACCENTED), seed=6),
    ]
)
_ACCENTED_VALUE = st.sampled_from(["", " ", "É", "A", "AB", "JOSÉ", "ÉÉ", "JONES", "A B"])


def _both_paths(encoder: RecordEncoder, rows: list) -> list[tuple[np.ndarray, dict]]:
    """``encode_dataset``'s words and stats with every batch value by value, then batched."""
    out = []
    for limit in (len(rows), 0):
        stats: dict[str, float] = {}
        with mock.patch("repro.core.encoder.SMALL_BATCH_ROWS", limit):
            out.append((cold(encoder).encode_dataset(rows, stats=stats).words, stats))
    return out


class TestSmallBatchSelection:
    """Both embeds of ``encode_dataset``, chosen by row count alone, give
    the same words, stats and errors; a small batch never runs the batched
    embed (the count form of "a one-row query pays per value")."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["wide", "accented"]),
        st.lists(st.lists(_ACCENTED_VALUE, min_size=3, max_size=3), min_size=1,
                 max_size=SMALL_BATCH_ROWS + 1),
    )
    @example("wide", [["JONES", "SMITH", "12 MAIN ST"]] * SMALL_BATCH_ROWS)
    @example("wide", [["JONES", "SMITH", "12 MAIN ST"]] * (SMALL_BATCH_ROWS + 1))
    def test_every_size_equals_per_record_and_batched_words(self, which, rows):
        encoder = WIDE_ENCODER if which == "wide" else ACCENTED_ENCODER
        if which == "wide":  # no É in TEXT_ALPHABET: keep to its values
            rows = [[value.replace("É", "E") for value in row] for row in rows]
        rows = [tuple(row[: encoder.n_attributes]) for row in rows]
        expected = np.stack([encoder.encode(row).to_packed() for row in rows])
        columns = [[row[att] for row in rows] for att in range(encoder.n_attributes)]
        offsets = [layout.offset for layout in encoder.layouts]
        batched = embed_columns(encoder.encoders, offsets, columns, encoder.total_bits)[0]
        memos: list[dict[str, int]] = [{} for __ in encoder.encoders]
        by_value = embed_values(encoder.encoders, offsets, rows, encoder.total_bits, memos)
        assert np.array_equal(batched.words, expected)
        assert np.array_equal(by_value.words, expected)
        with mock.patch("repro.core.encoder.embed_columns", wraps=embed_columns) as spy:
            assert np.array_equal(encoder.encode_dataset(rows).words, expected)
        assert spy.call_count == (0 if len(rows) <= SMALL_BATCH_ROWS else 1)
        (small, small_stats), (large, large_stats) = _both_paths(encoder, rows)
        assert np.array_equal(small, expected) and np.array_equal(large, expected)
        n_unique = sum(len(set(column)) for column in columns)
        assert small_stats == large_stats == {
            "intern_values": float(encoder.n_attributes * len(rows)),
            "intern_unique": float(n_unique),
            "intern_hit_rate": 1.0 - n_unique / (encoder.n_attributes * len(rows)),
        }

    @pytest.mark.parametrize("n_rows", [1, SMALL_BATCH_ROWS, SMALL_BATCH_ROWS + 1])
    def test_non_alphabet_value_is_named_on_both_paths(self, n_rows):
        rows = [("JONES", "SMITH", "12 MAIN ST")] * (n_rows - 1) + [("JOSÉ", "", "")]
        with pytest.raises(AlphabetError, match="'É'.*'JOSÉ'"):
            cold(WIDE_ENCODER).encode_dataset(rows)


def cold(encoder: RecordEncoder) -> RecordEncoder:
    """The same calibration with nothing in its value memos."""
    return RecordEncoder(encoder.encoders, encoder.names)


def held(encoder: RecordEncoder) -> list[int]:
    return [len(memo) for memo in encoder._memos]


def in_small_batches(encoder: RecordEncoder, rows: list) -> np.ndarray:
    """``rows`` embedded ``SMALL_BATCH_ROWS`` at a time: every call value by value."""
    return np.concatenate(
        [
            encoder.encode_dataset(rows[lo : lo + SMALL_BATCH_ROWS]).words
            for lo in range(0, len(rows), SMALL_BATCH_ROWS)
        ]
    )


class TestValueRowStore:
    """A small batch finds a value met before in its attribute's memo (the
    value's record-width row, as an integer); whatever the memo holds,
    dropped or never saw, the words are those of a cold encoder."""

    @pytest.mark.parametrize("n_rows", [1, 64, 100_000])
    def test_warm_encoder_equals_cold_encoder(self, n_rows):
        rng = np.random.default_rng(n_rows)
        common = ["", " ", "A", "JONES", "JONAS", "SMITH", "12 MAIN ST"]
        # The first two columns repeat a few values, the third is mostly distinct.
        rows = [
            (common[a], common[b], f"{c} OAK AVE" if c % 4 else "")
            for a, b, c in zip(*rng.integers(0, len(common), size=(2, n_rows)), range(n_rows))
        ]
        warm = cold(WIDE_ENCODER)
        warm.encode_dataset([("JONES", "", "7 OAK AVE"), ("", " ", "")])  # some held, some not
        expected = cold(WIDE_ENCODER).encode_dataset(rows).words
        head = rows[:2048]  # the value-by-value path, SMALL_BATCH_ROWS rows a call
        for __ in range(2):  # the second pass finds what the first one memoised
            assert np.array_equal(warm.encode_dataset(rows).words, expected)
            assert np.array_equal(in_small_batches(warm, head), expected[: len(head)])
        if n_rows == 1:
            assert np.array_equal(expected[0], WIDE_ENCODER.encode(rows[0]).to_packed())

    def test_full_store_starts_over_and_oversized_column_bypasses(self, monkeypatch):
        monkeypatch.setattr("repro.core.cvector.VALUE_MEMO_SIZE", 4)
        encoder = cold(WIDE_ENCODER)
        batches = [
            [(f"A{i}", "SMITH", f"{i} ELM RD") for i in range(lo, lo + 3)] for lo in range(9)
        ]
        sizes = []
        for rows in batches + batches[:2]:  # evicted values come back
            columns = [[row[att] for row in rows] for att in range(3)]
            reference = embed_columns(WIDE_ENCODER.encoders, OFFSETS, columns, 270)[0]
            assert np.array_equal(encoder.encode_dataset(rows).words, reference.words)
            sizes.append(held(encoder))
        # Four values per attribute: the two churning columns start over when
        # full, and never at the expense of the repetitive one.
        assert all(0 < a <= 4 and b == 1 and 0 < c <= 4 for a, b, c in sizes)
        assert sum(now[0] < before[0] for before, now in zip(sizes, sizes[1:])) >= 2
        wide = [(f"B{i}", "SMITH", "1 ELM RD") for i in range(SMALL_BATCH_ROWS + 1)]
        before = held(encoder)
        assert np.array_equal(
            encoder.encode_dataset(wide).words, cold(WIDE_ENCODER).encode_dataset(wide).words
        )
        assert held(encoder) == before  # a large batch neither reads nor fills the memos

    def test_store_is_not_part_of_the_encoder(self):
        encoder = cold(WIDE_ENCODER)
        description, fingerprint = encoder_to_dict(encoder), encoder_fingerprint(encoder)
        row = [("JONES", "SMITH", "12 MAIN ST")]
        words = encoder.encode_dataset(row).words
        assert held(encoder) == [1, 1, 1]
        assert encoder_to_dict(encoder) == description
        assert encoder_fingerprint(encoder) == fingerprint
        shipped = pickle.loads(pickle.dumps(encoder))  # a pickled encoder arrives cold
        assert held(shipped) == [0, 0, 0] and held(encoder) == [1, 1, 1]
        assert np.array_equal(shipped.encode_dataset(row).words, words)
        encoder.clear_value_rows()
        assert held(encoder) == [0, 0, 0]

    def test_returned_rows_are_never_the_stored_ones(self):
        encoder = cold(WIDE_ENCODER)
        row = [("JONES", "SMITH", "12 MAIN ST")]
        first = encoder.encode_dataset(row)
        expected = first.words.copy()
        first.words[:] = 0  # a caller scribbling on its own matrix ...
        again = encoder.encode_dataset(row)
        assert np.array_equal(again.words, expected)  # ... does not reach the memo
        again.words[:] = 0
        assert np.array_equal(encoder.encode_dataset(row).words, expected)

    def test_a_failure_is_never_stored(self):
        encoder = cold(WIDE_ENCODER)
        bad = [("JONES", "SMITH", "12 MAIN ST"), ("JOS\u00c9", "SMITH", "12 MAIN ST")]
        for __ in range(3):
            with pytest.raises(AlphabetError):
                encoder.encode_dataset(bad)
            with pytest.raises(AlphabetError):
                encoder.encode_dataset(bad[1:])
        assert held(encoder) == [0, 0, 0]  # the good values of a failed batch are not kept either
        good = encoder.encode_dataset(bad[:1]).words
        assert np.array_equal(good, cold(WIDE_ENCODER).encode_dataset(bad[:1]).words)

    def test_concurrent_fills_of_a_small_store(self, monkeypatch):
        """More threads than cores, a switch interval of microseconds and a
        memo that starts over every few values: a lost update or a value
        read while being replaced would show as a wrong word."""
        monkeypatch.setattr("repro.core.cvector.VALUE_MEMO_SIZE", 8)
        encoder = cold(WIDE_ENCODER)
        batches = [
            [(f"N{(t + i) % 13}", f"S{i % 5}", f"{(t * i) % 17} PINE LN") for i in range(6)]
            for t in range(8)
        ]
        expected = [cold(WIDE_ENCODER).encode_dataset(rows).words for rows in batches]
        wrong: list[int] = []

        def worker(t: int) -> None:
            for __ in range(400):
                if not np.array_equal(encoder.encode_dataset(batches[t]).words, expected[t]):
                    wrong.append(t)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert all(size <= 8 for size in held(encoder))


class TestAttributeDistances:
    def test_distances_match_slices(self, ncvr_encoder):
        matrix = ncvr_encoder.encode_dataset(RECORDS)
        rows_a = np.asarray([0, 0, 1])
        rows_b = np.asarray([1, 2, 2])
        distances = ncvr_encoder.attribute_distances(matrix, rows_a, matrix, rows_b)
        for layout in ncvr_encoder.layouts:
            for idx, (a, b) in enumerate(zip(rows_a, rows_b)):
                expected = (
                    matrix.row(int(a))
                    .slice(layout.offset, layout.stop)
                    .hamming(matrix.row(int(b)).slice(layout.offset, layout.stop))
                )
                assert distances[layout.name][idx] == expected

    def test_identical_records_zero_everywhere(self, ncvr_encoder):
        matrix = ncvr_encoder.encode_dataset(RECORDS)
        rows = np.asarray([0, 1, 2])
        distances = ncvr_encoder.attribute_distances(matrix, rows, matrix, rows)
        for values in distances.values():
            assert (values == 0).all()

    def test_perturbed_attribute_isolated(self, ncvr_encoder):
        """Only the perturbed attribute shows a non-zero distance."""
        matrix = ncvr_encoder.encode_dataset(RECORDS[:2])  # differ only in f1
        distances = ncvr_encoder.attribute_distances(
            matrix, np.asarray([0]), matrix, np.asarray([1])
        )
        assert distances["f1"][0] > 0
        assert distances["f2"][0] == 0
        assert distances["f3"][0] == 0
        assert distances["f4"][0] == 0


class TestCalibration:
    def test_calibrated_reproduces_table3_widths(self):
        """Samples with exactly the Table 3 bigram counts yield its sizes."""
        def word(n):  # a string with exactly n bigrams
            return "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[: n + 1]

        sample = [(word(5), word(5), word(20), word(7))] * 10
        enc = RecordEncoder.calibrated(sample, seed=0)
        assert [lay.width for lay in enc.layouts] == [15, 15, 68, 22]
        assert enc.total_bits == 120

    def test_seeded_calibration_reproducible(self):
        sample = [("JONES", "SMITH", "MAIN ST", "BOONE")] * 3
        from repro.data.generators import EXPERIMENT_SCHEME

        e1 = RecordEncoder.calibrated(sample, scheme=EXPERIMENT_SCHEME, seed=9)
        e2 = RecordEncoder.calibrated(sample, scheme=EXPERIMENT_SCHEME, seed=9)
        assert e1.encode(sample[0]) == e2.encode(sample[0])

    def test_attribute_hashes_differ(self):
        sample = [("ABCDE", "ABCDE")] * 5
        enc = RecordEncoder.calibrated(sample, seed=3)
        g1, g2 = enc.encoders[0].hash_fn, enc.encoders[1].hash_fn
        assert (g1.a, g1.b) != (g2.a, g2.b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            RecordEncoder.calibrated([])
