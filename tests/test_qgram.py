"""Tests for repro.core.qgram — Algorithm 1 and q-gram vectors."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.minhash import bigram_matrix
from repro.core.qgram import (
    QGramScheme,
    batch_qgram_indices,
    qgram_from_index,
    qgram_index,
    qgram_index_set,
    qgrams,
)
from repro.text.alphabet import Alphabet, AlphabetError
from tests.bits import distance, set_bits

UPPER = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=0, max_size=15)


class TestQGrams:
    def test_bigrams_of_john(self):
        assert qgrams("JOHN") == ["JO", "OH", "HN"]

    def test_padded_bigrams(self):
        assert qgrams("JOHN", padded=True) == ["_J", "JO", "OH", "HN", "N_"]

    def test_too_short_string(self):
        assert qgrams("A") == []
        assert qgrams("", padded=True) == []

    def test_unigrams(self):
        assert qgrams("ABC", q=1) == ["A", "B", "C"]

    def test_trigram_padding(self):
        grams = qgrams("AB", q=3, padded=True)
        assert grams[0] == "__A"
        assert grams[-1] == "B__"

    @given(UPPER, st.integers(min_value=1, max_value=4))
    def test_count_formula(self, s, q):
        assert len(qgrams(s, q)) == max(0, len(s) - q + 1)


class TestAlgorithm1:
    def test_paper_figure_1(self):
        # F('JO') = 248, F('OH') = 371, F('HN') = 195.
        assert qgram_index("JO") == 248
        assert qgram_index("OH") == 371
        assert qgram_index("HN") == 195

    def test_john_index_set(self):
        assert sorted(qgram_index_set("JOHN")) == [195, 248, 371]

    def test_boundaries(self):
        assert qgram_index("AA") == 0
        assert qgram_index("ZZ") == 675

    def test_inverse(self):
        assert qgram_from_index(248, 2) == "JO"

    @given(st.integers(min_value=0, max_value=675))
    def test_bijection(self, index):
        assert qgram_index(qgram_from_index(index, 2)) == index

    def test_empty_gram_rejected(self):
        with pytest.raises(ValueError):
            qgram_index("")

    def test_unknown_character_rejected(self):
        with pytest.raises(AlphabetError):
            qgram_index("a!")

    def test_index_out_of_space(self):
        with pytest.raises(ValueError):
            qgram_from_index(676, 2)

    def test_custom_alphabet(self):
        abc = Alphabet("AB")
        assert qgram_index("BB", abc) == 3
        assert qgram_from_index(3, 2, abc) == "BB"


#: An alphabet with the pad character and one non-ASCII letter: a column
#: holding the letter goes through the UTF-32 code buffer, one without it
#: through the byte buffer.
MIXED = Alphabet("ABC_\u00e9")
MIXED_COLUMN = st.lists(st.text(alphabet=MIXED.chars, max_size=5), max_size=8)


class TestIndexSet:
    @given(st.text(alphabet=MIXED.chars + "1", max_size=6), st.sampled_from([1, 2, 3]),
           st.booleans())
    @example("1", 2, False)  # shorter than q: no q-gram, so no character is looked up
    @settings(max_examples=200, deadline=None)
    def test_equals_qgram_index_over_qgrams(self, value, q, padded):
        """The one-pass ``qgram_index_set`` against Algorithm 1 gram by gram,
        errors included."""
        try:
            expected = {qgram_index(gram, MIXED) for gram in qgrams(value, q, padded, "_")}
        except AlphabetError as error:
            with pytest.raises(AlphabetError, match=re.escape(str(error))):
                qgram_index_set(value, q, MIXED, padded, "_")
        else:
            assert qgram_index_set(value, q, MIXED, padded, "_") == expected


class TestBatchTokeniser:
    """``batch_qgram_indices`` is ``qgram_index`` over ``qgrams``, value by value."""

    @given(MIXED_COLUMN, st.sampled_from([1, 2, 3]), st.booleans())
    @example(["", "", ""], 2, True)  # only empty values: no buffer at all
    @example(["A", "", "AB", "\u00e9"], 3, False)  # every value shorter than q
    @example(["", "ABC", "", "A\u00e9_"], 2, True)
    @settings(max_examples=200, deadline=None)
    def test_equals_per_value_algorithm_1(self, values, q, padded):
        flat, counts = batch_qgram_indices(values, q, MIXED, padded, "_")
        expected = [
            [qgram_index(gram, MIXED) for gram in qgrams(value, q, padded, "_")]
            for value in values
        ]
        assert counts.tolist() == [len(indices) for indices in expected]
        assert flat.tolist() == [index for indices in expected for index in indices]

    @pytest.mark.parametrize("bad", ["1", "\u00e8"], ids=["ascii", "non-ascii"])
    @pytest.mark.parametrize(
        "column, index",
        [(["A{}B", "AB", "BA"], 0), (["AB", "BA", "AB{}"], 2), (["AB", "", "{}AB", "A{}"], 2)],
        ids=["first", "last", "after-empty"],
    )
    def test_alphabet_error_names_the_value(self, column, index, bad):
        values = [value.format(bad) for value in column]
        with pytest.raises(AlphabetError) as error:
            batch_qgram_indices(values, 2, MIXED)
        message = str(error.value)
        assert f"character {bad!r} of value {index} ({values[index]!r})" in message

    def test_character_outside_every_qgram_is_not_an_error(self):
        """As per value: a string shorter than ``q`` has no q-gram to index."""
        flat, counts = batch_qgram_indices(["1", "AB"], 2, MIXED)
        assert (flat.tolist(), counts.tolist()) == ([qgram_index("AB", MIXED)], [0, 1])


class TestScheme:
    def test_space_size(self):
        assert QGramScheme().space_size == 676

    def test_padded_requires_pad_in_alphabet(self):
        with pytest.raises(ValueError, match="padding char"):
            QGramScheme(padded=True)  # default alphabet lacks '_'

    def test_padded_with_proper_alphabet(self):
        scheme = QGramScheme(alphabet=Alphabet.uppercase_padded(), padded=True)
        assert len(scheme.index_set("JOHN")) == 5

    def test_count_includes_padding(self):
        plain = QGramScheme()
        padded = QGramScheme(alphabet=Alphabet.uppercase_padded(), padded=True)
        assert plain.count("JONES") == 4
        assert padded.count("JONES") == 6

    @given(st.text(alphabet="AB_", max_size=6), st.sampled_from([1, 2, 3]), st.booleans())
    @example("", 2, True)  # padding leaves an empty value empty: no q-gram
    @settings(max_examples=200, deadline=None)
    def test_count_equals_batch_tokeniser(self, value, q, padded):
        scheme = QGramScheme(q=q, alphabet=Alphabet("AB_"), padded=padded)
        __, counts = batch_qgram_indices([value], q, scheme.alphabet, padded, scheme.pad_char)
        assert scheme.count(value) == counts[0]

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QGramScheme(q=0)


def qgram_distance(s: str, t: str, scheme: QGramScheme = QGramScheme()) -> int:
    """``d_H`` of the full q-gram vectors of ``s`` and ``t`` (two packed rows)."""
    return distance(bigram_matrix([(s,), (t,)], scheme))


class TestVectors:
    def test_vector_width_is_space_size(self):
        assert bigram_matrix([("JOHN",)], QGramScheme()).n_bits == 676

    def test_vector_sets_exactly_index_set(self):
        matrix = bigram_matrix([("JOHN",)], QGramScheme())
        assert set(set_bits(matrix, 0)) == qgram_index_set("JOHN")

    def test_repeated_grams_collapse(self):
        # 'AAA' yields bigram 'AA' twice but one set position.
        assert set_bits(bigram_matrix([("AAA",)], QGramScheme()), 0) == [0]


class TestPaperDistanceCorrespondence:
    """Section 5.1: types of errors in E map to bounded distances in H."""

    def test_substitution_jones_jonas(self):
        assert qgram_distance("JONES", "JONAS") == 4

    def test_substitution_with_overlap_shannen(self):
        assert qgram_distance("SHANNEN", "SHENNEN") == 3

    def test_delete_jones_jons(self):
        assert qgram_distance("JONES", "JONS") == 3

    def test_insert_jones_joneas(self):
        assert qgram_distance("JONES", "JONEAS") == 3

    @given(UPPER.filter(lambda s: len(s) >= 3), st.integers(0, 25), st.data())
    @settings(max_examples=100)
    def test_substitution_bound_alpha_4(self, s, letter, data):
        """One substitution moves Hamming distance by at most 4 (q=2)."""
        pos = data.draw(st.integers(0, len(s) - 1))
        new_char = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"[letter]
        perturbed = s[:pos] + new_char + s[pos + 1 :]
        assert qgram_distance(s, perturbed) <= 4

    @given(UPPER.filter(lambda s: len(s) >= 3), st.data())
    @settings(max_examples=100)
    def test_delete_bound_alpha_3(self, s, data):
        """One deletion moves Hamming distance by at most 3 (q=2)."""
        pos = data.draw(st.integers(0, len(s) - 1))
        perturbed = s[:pos] + s[pos + 1 :]
        assert qgram_distance(s, perturbed) <= 3

    def test_length_independence(self):
        """Unlike Jaccard, the Hamming distance of one substitution does not
        depend on string length (paper's WASHINGTON example)."""
        short = qgram_distance("JONES", "JONAS")
        long = qgram_distance("WASHINGTON", "WASHANGTON")
        assert short == long == 4
