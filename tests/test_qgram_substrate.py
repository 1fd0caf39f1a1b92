"""One q-gram substrate for the baselines, against its scalar references.

BfH's Bloom filters and HARRA's, MinHash's and canopy's bigram vectors
are embedded by :func:`repro.core.cvector.embed_columns`, like c-vectors;
MinHash signatures and every Jaccard distance are read from the packed
rows.  Each is checked here against the per-gram, per-set reference it
replaced (``bloom_positions``, ``QGramScheme.index_set``,
``MinHasher.signature``, ``jaccard_distance_sets``), and every record
embed shares one input policy (``record_errors``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BfHLinker,
    BloomFieldEncoder,
    BloomRecordEncoder,
    CanopyLinker,
    HarraLinker,
    MinHasher,
    MinHashLinker,
    bigram_matrix,
    bloom_positions,
)
from repro.baselines import bloom
from repro.core.cvector import VALUE_BLOCK
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme
from repro.data import NCVRGenerator
from repro.data.generators import EXPERIMENT_SCHEME
from repro.hamming.distance import jaccard_distance_rows, jaccard_distance_sets
from repro.text.alphabet import TEXT_ALPHABET, AlphabetError
from tests.bits import from_index_sets, set_bits

PADDED = QGramScheme(alphabet=TEXT_ALPHABET, padded=True)
SCHEMES = [EXPERIMENT_SCHEME, PADDED]


def random_values(n: int, seed: int) -> list[str]:
    """``n`` distinct strings over the text alphabet (the empty one included)."""
    rng = np.random.default_rng(seed)
    chars = np.array(list(TEXT_ALPHABET.chars.replace("_", "")))
    values = {""}
    while len(values) < n:
        values.add("".join(rng.choice(chars, size=int(rng.integers(1, 12)))))
    return sorted(values)


#: More distinct values than one pass of ``embed_columns`` takes.
MANY = random_values(VALUE_BLOCK + 300, seed=1)
#: A few values, repeats and empties included (fewer q-grams than the space).
FEW = ["JONES", "", "JONES", "A", "SMITH", "", "12 MAIN ST"]
NCVR_ROWS = NCVRGenerator().generate(300, seed=4).value_rows()


def bloom_reference(value: str, scheme: QGramScheme, n_bits: int, n_hashes: int) -> set[int]:
    return {
        bit for gram in scheme.grams(value) for bit in bloom_positions(gram, n_bits, n_hashes)
    }


def bigram_reference(row, scheme: QGramScheme) -> set[int]:
    return set().union(*(scheme.index_set(value) for value in row))


class TestBloomRows:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=["plain", "padded"])
    @pytest.mark.parametrize("values", [FEW, MANY], ids=["few", "many"])
    def test_field_row_is_or_of_bloom_positions(self, scheme, values):
        encoder = BloomFieldEncoder(n_bits=500, n_hashes=15, scheme=scheme)
        expected = from_index_sets(
            [bloom_reference(value, scheme, 500, 15) for value in values], 500
        )
        assert encoder.encode_all(values) == expected

    @pytest.mark.parametrize("scheme", SCHEMES, ids=["plain", "padded"])
    def test_record_row_is_fields_at_their_offsets(self, scheme):
        encoder = BloomRecordEncoder(4, n_bits=130, n_hashes=7, scheme=scheme)
        rows = NCVR_ROWS + [("", "", "", ""), NCVR_ROWS[0]]
        expected = [
            {
                att * 130 + bit
                for att, value in enumerate(row)
                for bit in bloom_reference(value, scheme, 130, 7)
            }
            for row in rows
        ]
        assert encoder.encode_dataset(rows) == from_index_sets(expected, 520)

    def test_no_records(self):
        assert BloomRecordEncoder(3).encode_dataset([]).words.shape == (0, 24)


class TestBigramRows:
    @pytest.mark.parametrize("scheme", SCHEMES, ids=["plain", "padded"])
    @pytest.mark.parametrize(
        "rows",
        [
            [(value,) for value in FEW],
            [(value,) for value in MANY],
            NCVR_ROWS + [("", "", "", "")],
            [(a, b) for a, b in zip(MANY, reversed(MANY))],
        ],
        ids=["few", "many", "ncvr", "many-two-columns"],
    )
    def test_row_is_union_of_index_sets(self, scheme, rows):
        expected = [bigram_reference(row, scheme) for row in rows]
        assert bigram_matrix(rows, scheme) == from_index_sets(
            expected, scheme.space_size
        )

    def test_no_records(self):
        matrix = bigram_matrix([], EXPERIMENT_SCHEME)
        assert matrix.words.shape[0] == 0 and matrix.n_bits == EXPERIMENT_SCHEME.space_size


class TestSignatures:
    @pytest.mark.parametrize("prefix_fraction", [None, 0.05])
    def test_row_signature_is_signature_of_its_bits(self, prefix_fraction):
        hasher = MinHasher(24, seed=5, prefix_fraction=prefix_fraction)
        matrix = bigram_matrix(NCVR_ROWS + [("", "", "", "")], EXPERIMENT_SCHEME)
        signatures = hasher.signatures(matrix)
        assert signatures.shape == (matrix.n_rows, 24)
        for i in range(matrix.n_rows):
            bits = set_bits(matrix, i)
            assert (signatures[i] == hasher.signature(sorted(bits))).all()


class TestJaccardKernel:
    @staticmethod
    def sets(seed: int, n: int) -> list[set[int]]:
        rng = np.random.default_rng(seed)
        return [
            set(rng.choice(300, size=int(rng.integers(0, 40)), replace=False).tolist())
            for __ in range(n)
        ]

    def test_equals_sets_on_random_pairs(self):
        sets_a, sets_b = self.sets(1, 60), self.sets(2, 40)
        words_a = from_index_sets(sets_a, 300).words
        words_b = from_index_sets(sets_b, 300).words
        rng = np.random.default_rng(3)
        rows_a, rows_b = rng.integers(0, 60, size=500), rng.integers(0, 40, size=500)
        got = jaccard_distance_rows(words_a, rows_a, words_b, rows_b)
        want = [jaccard_distance_sets(sets_a[i], sets_b[j]) for i, j in zip(rows_a, rows_b)]
        assert got.tolist() == want

    def test_one_row_against_many(self):
        sets = self.sets(4, 30)
        words = from_index_sets(sets, 300).words
        others = np.arange(30)
        want = [jaccard_distance_sets(sets[7], other) for other in sets]
        assert jaccard_distance_rows(words, 7, words, others).tolist() == want
        assert jaccard_distance_rows(words, others, words, 7).tolist() == want

    def test_empty_rows(self):
        """Two empty rows are at distance 0, an empty and a non-empty one at 1."""
        sets = [set(), set(), {1, 2}]
        words = from_index_sets(sets, 300).words
        rows_a, rows_b = [0, 0, 2], [1, 2, 1]
        want = [jaccard_distance_sets(sets[a], sets[b]) for a, b in zip(rows_a, rows_b)]
        assert jaccard_distance_rows(words, rows_a, words, rows_b).tolist() == want
        assert want == [0.0, 1.0, 1.0]

    def test_no_pairs(self):
        words = from_index_sets([{1}], 300).words
        assert jaccard_distance_rows(words, [], words, []).shape == (0,)


class TestBloomTabulation:
    def test_gram_digests_are_tabulated_once_per_encoder(self, monkeypatch):
        """The (MD5, SHA1) digests are taken once per q-gram of the space
        when an encoder first embeds, never once per value or per record."""
        calls = []
        digest = bloom._digest_pair

        def counted(gram: str) -> tuple[int, int]:
            calls.append(gram)
            return digest(gram)

        monkeypatch.setattr(bloom, "_digest_pair", counted)
        rows = NCVRGenerator().generate(5000, seed=7).value_rows()
        encoder = BloomRecordEncoder(4, scheme=EXPERIMENT_SCHEME)
        encoder.encode_dataset(rows)
        assert 0 < len(calls) <= EXPERIMENT_SCHEME.space_size < len(rows)
        first = len(calls)
        encoder.encode_dataset(rows[:100])
        encoder.field_encoder.encode_all(["JONES"])
        assert len(calls) == first


GOOD = [("JONES", "SMITH", "12 MAIN ST", "RALEIGH")] * 3
BAD_B = [GOOD[0], GOOD[0], ("JONES", "smith", "12 MAIN ST", "RALEIGH")]

LINKERS = {
    "bfh": lambda: BfHLinker({"f1": 45}, n_attributes=4, seed=1),
    "harra": lambda: HarraLinker(seed=1),
    "minhash": lambda: MinHashLinker(seed=1),
    "canopy": lambda: CanopyLinker(4, seed=1),
}


class TestOneInputPolicy:
    @pytest.mark.parametrize("name", sorted(LINKERS))
    def test_non_alphabet_value_is_named(self, name):
        with pytest.raises(AlphabetError) as error:
            LINKERS[name]().link(GOOD, BAD_B)
        message = str(error.value)
        assert "row 2, attribute 'f2'" in message and "'smith'" in message

    @pytest.mark.parametrize("name", sorted(LINKERS))
    def test_ragged_record_raises(self, name):
        with pytest.raises(ValueError, match="record has 3 values, encoder expects 4"):
            LINKERS[name]().link(GOOD + [("JONES", "SMITH", "12 MAIN ST")], GOOD)

    def test_every_record_embed_names_the_same_value(self):
        rows = [("JONES", "SMITH")] * 40
        rows[5] = ("JONES", "smith")
        embeds = [
            lambda: BloomRecordEncoder(2).encode_dataset(rows),
            lambda: bigram_matrix(rows, EXPERIMENT_SCHEME),
            lambda: RecordEncoder.calibrated(rows[:1], scheme=EXPERIMENT_SCHEME).encode_dataset(
                rows
            ),
        ]
        messages = []
        for embed in embeds:
            with pytest.raises(AlphabetError) as error:
                embed()
            messages.append(str(error.value))
        assert len(set(messages)) == 1
        assert "row 5, attribute 'f2'" in messages[0]
