"""Tests for repro.core.cvector — universal hashing and c-vector encoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.minhash import bigram_matrix
from repro.core.cvector import CVectorEncoder, HASH_PRIME, UniversalHash, value_bits
from repro.core.qgram import QGramScheme
from repro.text.alphabet import Alphabet
from tests.bits import distance, row_int, set_bits


class TestUniversalHash:
    def test_formula(self):
        g = UniversalHash(a=3, b=7, m=10)
        assert g(5) == ((3 * 5 + 7) % HASH_PRIME) % 10

    def test_vectorised_matches_scalar(self):
        g = UniversalHash(a=12345, b=6789, m=68)
        xs = np.arange(0, 676, 7)
        assert g.apply(xs).tolist() == [g(int(x)) for x in xs]

    def test_range(self):
        g = UniversalHash.random(15, np.random.default_rng(0))
        values = g.apply(np.arange(676))
        assert values.min() >= 0 and values.max() < 15

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            UniversalHash(a=0, b=1, m=10)
        with pytest.raises(ValueError):
            UniversalHash(a=1, b=0, m=10)
        with pytest.raises(ValueError):
            UniversalHash(a=1, b=1, m=0)
        with pytest.raises(ValueError):
            UniversalHash(a=HASH_PRIME, b=1, m=10)

    def test_random_draws_reproducible(self):
        g1 = UniversalHash.random(10, np.random.default_rng(42))
        g2 = UniversalHash.random(10, np.random.default_rng(42))
        assert (g1.a, g1.b) == (g2.a, g2.b)

    def test_near_uniform_occupancy(self):
        """Hashing the whole bigram space fills slots roughly evenly."""
        g = UniversalHash.random(15, np.random.default_rng(7))
        counts = np.bincount(g.apply(np.arange(676)), minlength=15)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 2.0


class TestCVectorEncoder:
    def test_width(self):
        assert CVectorEncoder(15, seed=0).encode_all(["JONES"]).n_bits == 15

    def test_deterministic_per_encoder(self):
        enc = CVectorEncoder(15, seed=1)
        assert enc.encode_all(["JONES"]) == enc.encode_all(["JONES"])

    def test_same_seed_same_embedding(self):
        e1, e2 = CVectorEncoder(15, seed=5), CVectorEncoder(15, seed=5)
        assert e1.encode_all(["SMITH"]) == e2.encode_all(["SMITH"])

    def test_compact_indices_are_hashed_u_s(self):
        enc = CVectorEncoder(15, seed=2)
        u_s = enc.scheme.index_set("JOHN")
        assert set_bits(enc.encode_all(["JOHN"]), 0) == sorted({enc.hash_fn(x) for x in u_s})

    def test_collisions_accounting(self):
        """``|U_s| - |g(U_s)|`` q-grams share a bit with another one."""
        enc = CVectorEncoder(15, seed=3)
        value = "CONSTANTINOPLE"
        u_s = enc.scheme.index_set(value)
        ones = row_int(enc.encode_all([value]).words[0]).bit_count()
        assert len(u_s) - ones == len(u_s) - len({enc.hash_fn(x) for x in u_s}) > 0

    def test_empty_string_gives_zero_vector(self):
        assert not CVectorEncoder(15, seed=4).encode_all([""]).words.any()

    def test_hash_modulus_must_match_m(self):
        g = UniversalHash(a=3, b=5, m=10)
        with pytest.raises(ValueError):
            CVectorEncoder(15, hash_fn=g)

    def test_encode_all_matches_individual(self):
        enc = CVectorEncoder(22, seed=6)
        values = ["JONES", "SMITH", "", "JONES", "WASHINGTON"]
        matrix = enc.encode_all(values)
        for i, value in enumerate(values):
            assert row_int(matrix.words[i]) == value_bits(enc, 0, value)

    def test_encode_all_empty_rejected(self):
        with pytest.raises(ValueError):
            CVectorEncoder(10, seed=0).encode_all([])

    @given(st.text(alphabet="ABCDEFG", min_size=2, max_size=12), st.integers(0, 100))
    @settings(max_examples=60)
    def test_distance_never_exceeds_full_space(self, s, seed):
        """Collisions only shrink distances: d in H-hat <= d in H."""
        enc = CVectorEncoder(15, seed=seed)
        perturbed = s[:-1] + ("X" if s[-1] != "X" else "Y")
        full = distance(bigram_matrix([(s,), (perturbed,)], enc.scheme))
        compact = distance(enc.encode_all([s, perturbed]))
        assert compact <= full


class TestCalibration:
    def test_calibrated_size_follows_theorem_1(self):
        # All values have exactly 5 bigrams -> b = 5 -> m_opt = 15.
        values = ["ABCDEF", "GHIJKL", "MNOPQR"]
        enc = CVectorEncoder.calibrated(values, rho=1, r=1 / 3)
        assert enc.m == 15

    def test_measured_b_stored(self):
        enc = CVectorEncoder.calibrated(["ABCD", "EFGHEF"], rho=1, r=1 / 3)
        assert enc.b == pytest.approx(4.0)  # (3 + 5) / 2

    def test_empty_value_has_no_padded_qgram(self):
        """Padding leaves ``''`` empty: ``b`` is the sample's mean q-gram count."""
        scheme = QGramScheme(alphabet=Alphabet.uppercase_padded(), padded=True)
        enc = CVectorEncoder.calibrated(["", "AB"], scheme=scheme)
        assert enc.b == 1.5 == (scheme.count("") + scheme.count("AB")) / 2

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            CVectorEncoder.calibrated([])

    def test_all_empty_strings_rejected(self):
        with pytest.raises(ValueError, match="no q-grams"):
            CVectorEncoder.calibrated(["", "A"])

    def test_scheme_carried_through(self):
        scheme = QGramScheme(q=3)
        enc = CVectorEncoder.calibrated(["ABCDEFGH"], scheme=scheme)
        assert enc.scheme.q == 3


class TestCollisionStatistics:
    def test_average_collisions_within_budget(self):
        """Across many random values, observed collisions track Lemma 1."""
        rng = np.random.default_rng(11)
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        values = [
            "".join(letters[i] for i in rng.integers(0, 26, size=6)) for __ in range(500)
        ]
        enc = CVectorEncoder.calibrated(values, rho=1, r=1 / 3, seed=12)
        ones = [row_int(row).bit_count() for row in enc.encode_all(values).words]
        observed = np.mean([len(enc.scheme.index_set(v)) - n for v, n in zip(values, ones)])
        assert observed <= 1.25  # rho = 1 with sampling slack
