"""Tests for repro.baselines.bloom."""

import numpy as np
import pytest

from repro.baselines.bloom import (
    BloomFieldEncoder,
    BloomRecordEncoder,
    bloom_positions,
)
from tests.bits import distance, row_int, set_bits


class TestBloomPositions:
    def test_deterministic(self):
        assert bloom_positions("JO", 500, 15) == bloom_positions("JO", 500, 15)

    def test_count_and_range(self):
        positions = bloom_positions("AB", 500, 15)
        assert len(positions) == 15
        assert all(0 <= p < 500 for p in positions)

    def test_double_hashing_structure(self):
        """Positions follow (H1 + i*H2) mod m — consecutive differences are
        constant mod m."""
        positions = bloom_positions("XY", 499, 6)
        diffs = {(positions[i + 1] - positions[i]) % 499 for i in range(5)}
        assert len(diffs) == 1

    def test_different_grams_differ(self):
        assert bloom_positions("AB", 500, 15) != bloom_positions("BA", 500, 15)


class TestBloomFieldEncoder:
    def test_width(self):
        enc = BloomFieldEncoder()
        assert enc.encode_all(["JONES"]).n_bits == 500

    def test_membership_superset(self):
        """The filter of a string contains every one of its bigram's bits."""
        enc = BloomFieldEncoder()
        filter_positions = set(set_bits(enc.encode_all(["JONES"]), 0))
        for gram in enc.scheme.grams("JONES"):
            assert set(bloom_positions(gram, 500, 15)) <= filter_positions

    def test_empty_string(self):
        assert not BloomFieldEncoder().encode_all([""]).words.any()

    def test_encode_all_matches_single(self):
        enc = BloomFieldEncoder()
        values = ["JONES", "", "SMITH"]
        matrix = enc.encode_all(values)
        for i, value in enumerate(values):
            assert np.array_equal(matrix.words[i], enc.encode_all([value]).words[0])

    def test_distance_depends_on_string_length(self):
        """The paper's criticism of the Bloom filter space: one error in a
        short name moves the distance more than one error in a long word."""
        enc = BloomFieldEncoder()
        short = distance(enc.encode_all(["JOHN", "JAHN"]))
        long = distance(enc.encode_all(["SCALABILITY", "SCELABILITY"]))
        assert short != long  # length-dependent, unlike c-vectors

    def test_validation(self):
        with pytest.raises(ValueError):
            BloomFieldEncoder(n_bits=0)
        with pytest.raises(ValueError):
            BloomFieldEncoder(n_hashes=0)


class TestBloomRecordEncoder:
    def test_layout(self):
        enc = BloomRecordEncoder(4)
        assert enc.total_bits == 2000
        assert enc.layout("f3").offset == 1000

    def test_unknown_attribute(self):
        with pytest.raises(KeyError):
            BloomRecordEncoder(2).layout("f9")

    def test_encode_dataset_slices_match_fields(self):
        enc = BloomRecordEncoder(2)
        matrix = enc.encode_dataset([("JONES", "SMITH")])
        field = enc.field_encoder
        row = row_int(matrix.words[0])
        assert row & (1 << 500) - 1 == row_int(field.encode_all(["JONES"]).words[0])
        assert row >> 500 == row_int(field.encode_all(["SMITH"]).words[0])

    def test_arity_check(self):
        with pytest.raises(ValueError):
            BloomRecordEncoder(2).encode_dataset([("only",)])

    def test_attribute_distances(self):
        enc = BloomRecordEncoder(2)
        matrix = enc.encode_dataset([("JONES", "SMITH"), ("JONAS", "SMITH")])
        dist = enc.attribute_distances(
            matrix, np.asarray([0]), matrix, np.asarray([1])
        )
        assert dist["f1"][0] > 0
        assert dist["f2"][0] == 0
