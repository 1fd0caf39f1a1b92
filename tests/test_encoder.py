"""Tests for repro.core.encoder — record-level c-vector encoding."""

import pickle
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.bloom import BloomRecordEncoder, bloom_positions
from repro.baselines.minhash import bigram_matrix
from repro.core import cvector
from repro.core.cvector import (
    ONE_PASS_VALUES,
    SMALL_BATCH_ROWS,
    CVectorEncoder,
    embed_columns,
    record_errors,
)
from repro.core.encoder import RecordEncoder
from repro.core.persist import encoder_fingerprint, encoder_to_dict
from repro.core.qgram import QGramScheme
from repro.text.alphabet import TEXT_ALPHABET, Alphabet, AlphabetError
from tests.bits import from_index_sets, reference_words, row_int

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
        """Each attribute's c-vector (its own column embed) sits at its offset."""
        record = RECORDS[0]
        matrix = ncvr_encoder.encode_dataset([record])
        assert matrix.n_bits == 120
        vector = row_int(matrix.words[0])
        for layout, enc, value in zip(
            ncvr_encoder.layouts, ncvr_encoder.encoders, record
        ):
            attribute = vector >> layout.offset & (1 << layout.width) - 1
            assert attribute == row_int(enc.encode_all([value]).words[0])

    def test_arity_check(self, ncvr_encoder):
        with pytest.raises(ValueError, match="values"):
            ncvr_encoder.encode_dataset([("A", "B")])

    def test_dataset_matrix_matches_per_record(self, ncvr_encoder):
        with mock.patch("repro.core.encoder.SMALL_BATCH_ROWS", 0):  # the batched embed
            matrix = ncvr_encoder.encode_dataset(RECORDS)
        assert np.array_equal(matrix.words, reference_words(ncvr_encoder, RECORDS))

    def test_dataset_words_match_per_record_on_degenerate_values(self, ncvr_encoder):
        """The identity that makes batched ingest legal: the batch encoder
        and the value-by-value reference agree bit for bit, also on empty and
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
        with mock.patch("repro.core.encoder.SMALL_BATCH_ROWS", 0):  # the batched embed
            words = ncvr_encoder.encode_dataset(rows).words
        assert np.array_equal(words, reference_words(ncvr_encoder, rows))

    def test_arity_error_names_the_first_offender(self, ncvr_encoder):
        rows = [RECORDS[0], ("A", "B", "C"), ("A",)]
        with pytest.raises(ValueError, match="record has 3 values, encoder expects 4"):
            ncvr_encoder.encode_dataset(rows)

    def test_non_alphabet_values_rejected_by_both_encoders(self, ncvr_encoder):
        bad = ("JOS\u00c9", "SMITH", "12 MAIN ST", "BOONE")
        with pytest.raises(AlphabetError):
            ncvr_encoder.encode_dataset([bad])
        with pytest.raises(AlphabetError):
            ncvr_encoder.encode_dataset([RECORDS[0], bad] * SMALL_BATCH_ROWS)

    def test_empty_dataset_is_zero_rows(self, ncvr_encoder):
        stats = {}
        matrix = ncvr_encoder.encode_dataset([], stats=stats)
        assert matrix.n_rows == 0 and matrix.n_bits == ncvr_encoder.total_bits
        assert matrix.words.shape == (0, (ncvr_encoder.total_bits + 63) // 64)
        assert matrix.words.dtype == np.uint64
        assert stats == {"intern_values": 0.0, "intern_unique": 0.0, "intern_hit_rate": 0.0}


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
        expected = reference_words(WIDE_ENCODER, rows)
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
        monkeypatch.setattr("repro.core.cvector.ONE_PASS_VALUES", 0)  # the numbered embed
        rows = [(f"A{i % 7}", "" if i % 3 else "SMITH", f"{i} MAIN ST") for i in range(11)]
        expected = reference_words(WIDE_ENCODER, rows)
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


#: NCVR's Table 3 widths over the text alphabet (the ``ncvr_encoder`` fixture's
#: layout, at module level for Hypothesis).
NCVR_ENCODER = RecordEncoder(
    [
        CVectorEncoder(m, scheme=QGramScheme(alphabet=TEXT_ALPHABET), seed=10 + i)
        for i, m in enumerate((15, 15, 68, 22))
    ]
)
ENCODERS = {"wide": WIDE_ENCODER, "accented": ACCENTED_ENCODER, "ncvr": NCVR_ENCODER}
#: Per encoder, nine values of its alphabets: empty, blank, shorter than a
#: q-gram (unpadded) and ordinary.  Rows draw indices into them.
VALUES = {
    "wide": ["", " ", "A", "Z", "AB", "JONES", "JONAS", "12 MAIN ST", "A A"],
    "accented": ["", " ", "É", "A", "AB", "JOSÉ", "ÉÉ", "JONES", "A B"],
}
VALUES["ncvr"] = VALUES["wide"]
#: Values outside every test alphabet: one with q-grams in every scheme, one
#: with q-grams only when padded (too short otherwise, so no error).
FOREIGN = ["smith", "s"]
#: Every embed of ``encode_dataset``, forced by ``(SMALL_BATCH_ROWS, ONE_PASS_VALUES)``.
PATHS = {
    "value by value": (sys.maxsize, ONE_PASS_VALUES),
    "one pass": (0, sys.maxsize),
    "numbered": (0, 0),
    "chosen": (SMALL_BATCH_ROWS, ONE_PASS_VALUES),
}


def _reference(encoder: RecordEncoder, rows: list) -> np.ndarray | str:
    """The per-value reference words, or the message of the error they raise."""
    try:
        with record_errors(rows, encoder.names, encoder.encoders):
            return reference_words(encoder, rows)
    except AlphabetError as error:
        return str(error)


def _every_path(encoder: RecordEncoder, rows: list) -> dict[str, tuple[np.ndarray | str, dict]]:
    """``encode_dataset``'s words (or error message) and stats on every path."""
    out = {}
    for path, (small, one_pass) in PATHS.items():
        stats: dict[str, float] = {}
        with mock.patch("repro.core.encoder.SMALL_BATCH_ROWS", small), mock.patch(
            "repro.core.cvector.ONE_PASS_VALUES", one_pass
        ):
            try:
                out[path] = (cold(encoder).encode_dataset(rows, stats=stats).words, stats)
            except AlphabetError as error:
                out[path] = (str(error), stats)
    return out


def _gram_references(rows: list, scheme: QGramScheme, bloom: BloomRecordEncoder):
    """BfH's record filters (a field's bits at ``att * n_bits``) and HARRA's
    bigram rows of ``rows``, gram by gram."""
    field = bloom.field_encoder
    filters = [
        {
            att * field.n_bits + bit
            for att, value in enumerate(row)
            for gram in scheme.grams(value)
            for bit in bloom_positions(gram, field.n_bits, field.n_hashes)
        }
        for row in rows
    ]
    bigrams = [set().union(*map(scheme.index_set, row)) for row in rows]
    return (
        from_index_sets(filters, bloom.total_bits).words,
        from_index_sets(bigrams, scheme.space_size).words,
    )


#: BfH layouts (w = 3) over each test encoder's first scheme.
BLOOMS = {
    which: BloomRecordEncoder(
        encoder.n_attributes, n_bits=40, n_hashes=3, scheme=encoder.encoders[0].scheme
    )
    for which, encoder in ENCODERS.items()
}


class TestSmallBatchSelection:
    """Every embed of ``encode_dataset`` — value by value, one pass,
    numbered — gives the per-value reference's words, stats and errors at
    and on each side of both cutovers (``SMALL_BATCH_ROWS`` rows,
    ``ONE_PASS_VALUES`` values); a batch of at most ``SMALL_BATCH_ROWS`` rows
    never runs ``embed_columns``."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(sorted(ENCODERS)),
        st.lists(st.lists(st.integers(0, 8), min_size=4, max_size=4), min_size=1,
                 max_size=SMALL_BATCH_ROWS + 3),
        st.sampled_from([None, 0, 1]),
        st.one_of(st.none(), st.tuples(st.integers(0, 10**4), st.integers(0, 3),
                                       st.sampled_from(FOREIGN))),
    )
    @example("wide", [[7, 5, 5, 5]] * SMALL_BATCH_ROWS, None, None)
    @example("wide", [[7, 5, 5, 5]] * (SMALL_BATCH_ROWS + 1), None, None)
    @example("ncvr", [[5, 0, 7, 1], [2, 4, 3, 0]], 0, None)
    @example("ncvr", [[5, 0, 7, 1], [2, 4, 3, 0]], 1, (600, 2, "smith"))
    @example("accented", [[5, 1, 2, 0]], 1, (3, 0, "s"))
    def test_every_size_equals_per_record_and_batched_words(self, which, pool, cut, bad):
        encoder = ENCODERS[which]
        arity = encoder.n_attributes
        # The pool as drawn (1 to SMALL_BATCH_ROWS + 3 rows), or repeated to
        # the last row count of the one pass (cut 0) or the first past it (1).
        n_rows = len(pool) if cut is None else ONE_PASS_VALUES // arity + cut
        rows = [
            tuple(VALUES[which][i] for i in pool[r % len(pool)][:arity]) for r in range(n_rows)
        ]
        if bad is not None:
            row, att, value = bad
            rows[row % n_rows] = rows[row % n_rows][: att % arity] + (value,) + rows[
                row % n_rows
            ][att % arity + 1 :]
        expected = _reference(encoder, rows)
        columns = list(zip(*rows))
        n_unique = sum(len(set(column)) for column in columns)
        for path, (words, stats) in _every_path(encoder, rows).items():
            if isinstance(expected, str):
                assert words == expected, path
                continue
            assert isinstance(words, np.ndarray) and np.array_equal(words, expected), path
            assert stats == {
                "intern_values": float(arity * n_rows),
                "intern_unique": float(n_unique),
                "intern_hit_rate": 1.0 - n_unique / (arity * n_rows),
            }, path
        with mock.patch("repro.core.encoder.embed_columns", wraps=embed_columns) as spy:
            if isinstance(expected, str):
                with pytest.raises(AlphabetError):
                    encoder.encode_dataset(rows)
            else:
                assert np.array_equal(encoder.encode_dataset(rows).words, expected)
        assert spy.call_count == (0 if n_rows <= SMALL_BATCH_ROWS else 1)
        if cut is None and bad is None:  # BfH's w = 3 tables, HARRA's offset-0 ones
            scheme = encoder.encoders[0].scheme
            filters, bigrams = _gram_references(rows, scheme, BLOOMS[which])
            for one_pass in (sys.maxsize, 0):
                with mock.patch("repro.core.cvector.ONE_PASS_VALUES", one_pass):
                    assert np.array_equal(BLOOMS[which].encode_dataset(rows).words, filters)
                    assert np.array_equal(bigram_matrix(rows, scheme).words, bigrams)

    #: Row counts of a three-attribute batch: value by value, one pass, numbered.
    @pytest.mark.parametrize(
        "n_rows",
        sorted({1, SMALL_BATCH_ROWS, SMALL_BATCH_ROWS + 1, 8, 9,
                ONE_PASS_VALUES // 3, ONE_PASS_VALUES // 3 + 1}),
    )
    def test_non_alphabet_value_is_named_on_both_paths(self, n_rows):
        rows = [("JONES", "SMITH", "12 MAIN ST")] * (n_rows - 1) + [("JOSÉ", "", "")]
        with pytest.raises(AlphabetError, match="'É'.*'JOSÉ'"):
            cold(WIDE_ENCODER).encode_dataset(rows)

    def test_both_paths_name_the_same_row_and_attribute(self):
        """A bad value in the last row of a value-by-value batch reads the
        same from a one-pass batch of 40 and a numbered batch past
        ``ONE_PASS_VALUES`` (where it is unique value 1)."""
        messages = []
        bad_row = SMALL_BATCH_ROWS - 1
        for n_rows in (SMALL_BATCH_ROWS, 40, ONE_PASS_VALUES // 3 + 1):
            rows = [("JONES", "SMITH", "12 MAIN ST")] * n_rows
            rows[bad_row] = ("JONES", "smith", "12 MAIN ST")
            with pytest.raises(AlphabetError) as error:
                cold(WIDE_ENCODER).encode_dataset(rows)
            messages.append(str(error.value))
        assert messages[0] == messages[1] == messages[2]
        assert f"row {bad_row}, attribute {WIDE_ENCODER.names[1]!r}" in messages[0]
        assert "'smith'" in messages[0]


class TestOnePass:
    """A batch of at most ``ONE_PASS_VALUES`` values tokenises once per
    q-gram scheme and scatters once, whatever its number of attributes
    (the numbered embed tokenises every column)."""

    ROWS = [("JONES", "SMITH", "12 MAIN ST", "BOONE")] * 40 + [("", "A", "", "JONAS")] * 24

    @pytest.mark.parametrize(
        "embed, n_schemes",
        [
            (lambda rows: cold(NCVR_ENCODER).encode_dataset(rows), 1),
            (lambda rows: cold(WIDE_ENCODER).encode_dataset([row[:3] for row in rows]), 1),
            (lambda rows: cold(ACCENTED_ENCODER).encode_dataset(
                [(row[0][:2], "JOSÉ") for row in rows]), 2),
            (lambda rows: BLOOMS["ncvr"].encode_dataset(rows), 1),
            (lambda rows: bigram_matrix(rows, NCVR_ENCODER.encoders[0].scheme), 1),
            (lambda rows: NCVR_ENCODER.encoders[2].encode_all([row[2] for row in rows]), 1),
        ],
        ids=["ncvr", "wide", "accented", "bloom", "bigram", "one-column"],
    )
    def test_one_tokenise_per_scheme_and_one_scatter(self, embed, n_schemes):
        with mock.patch.object(
            cvector, "batch_qgram_indices", wraps=cvector.batch_qgram_indices
        ) as tokenise, mock.patch.object(cvector, "scatter_bits", wraps=cvector.scatter_bits) as scatter:
            words = embed(self.ROWS).words
        assert (tokenise.call_count, scatter.call_count) == (n_schemes, 1)
        with mock.patch("repro.core.cvector.ONE_PASS_VALUES", 0):
            assert np.array_equal(embed(self.ROWS).words, words)

    def test_pickled_encoder_carries_no_tables(self):
        """The gram -> bit tables (each ``CVectorEncoder``'s, the layout's
        stacks) are working state: a pickle after an embed holds neither and
        its reload embeds the same words."""
        encoder = cold(NCVR_ENCODER)
        before = pickle.dumps(encoder)
        words = encoder.encode_dataset(self.ROWS).words
        assert encoder._stacks and all(enc._table is not None for enc in encoder.encoders)
        after = pickle.dumps(encoder)
        assert after == before
        shipped = pickle.loads(after)
        assert shipped._stacks == [] and all(enc._table is None for enc in shipped.encoders)
        assert np.array_equal(shipped.encode_dataset(self.ROWS).words, words)


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
            assert np.array_equal(expected, reference_words(WIDE_ENCODER, rows))

    def test_full_store_starts_over_and_oversized_column_bypasses(self, monkeypatch):
        monkeypatch.setattr("repro.core.cvector.VALUE_MEMO_SIZE", 4)
        encoder = cold(WIDE_ENCODER)
        batches = [
            [(f"A{i}", "SMITH", f"{i} ELM RD") for i in range(lo, lo + SMALL_BATCH_ROWS)]
            for lo in range(9)
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
        read while being replaced would show as a wrong word.  Half the
        threads embed one-pass batches, which build a fresh encoder's gram
        -> bit tables and stacks under the same contention."""
        monkeypatch.setattr("repro.core.cvector.VALUE_MEMO_SIZE", 4)
        encoder = RecordEncoder(
            [CVectorEncoder(enc.m, enc.scheme, enc.hash_fn) for enc in WIDE_ENCODER.encoders]
        )
        batches = [
            [
                (f"N{(t + i) % 13}", f"S{(t + i) % 5}", f"{(t * i) % 17} PINE LN")
                for i in range(SMALL_BATCH_ROWS if t % 2 else SMALL_BATCH_ROWS + 1 + t)
            ]
            for t in range(8)
        ]
        expected = [reference_words(WIDE_ENCODER, rows) for rows in batches]
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
        assert all(size <= 4 for size in held(encoder))


class TestAttributeDistances:
    def test_distances_match_slices(self, ncvr_encoder):
        matrix = ncvr_encoder.encode_dataset(RECORDS)
        rows_a = np.asarray([0, 0, 1])
        rows_b = np.asarray([1, 2, 2])
        distances = ncvr_encoder.attribute_distances(matrix, rows_a, matrix, rows_b)
        for layout in ncvr_encoder.layouts:
            mask = (1 << layout.stop) - (1 << layout.offset)
            for idx, (a, b) in enumerate(zip(rows_a, rows_b)):
                xor = row_int(matrix.words[a]) ^ row_int(matrix.words[b])
                assert distances[layout.name][idx] == (xor & mask).bit_count()

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
        assert e1.encode_dataset(sample[:1]) == e2.encode_dataset(sample[:1])

    def test_attribute_hashes_differ(self):
        sample = [("ABCDE", "ABCDE")] * 5
        enc = RecordEncoder.calibrated(sample, seed=3)
        g1, g2 = enc.encoders[0].hash_fn, enc.encoders[1].hash_fn
        assert (g1.a, g1.b) != (g2.a, g2.b)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            RecordEncoder.calibrated([])
