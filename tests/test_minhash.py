"""Tests for repro.baselines.minhash."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.minhash import MinHasher, MinHashLSH, collision_probability
from repro.hamming.bitmatrix import BitMatrix

SETS = st.sets(st.integers(0, 675), min_size=1, max_size=25).map(frozenset)


class TestMinHasher:
    def test_signature_shape(self):
        hasher = MinHasher(10, seed=0)
        assert hasher.signature([1, 2, 3]).shape == (10,)

    def test_signature_deterministic(self):
        hasher = MinHasher(5, seed=1)
        assert (hasher.signature([4, 9]) == hasher.signature([9, 4])).all()

    def test_bulk_matches_single(self):
        hasher = MinHasher(8, seed=2)
        sets = [{1, 5, 9}, {2}, set(), {1, 5, 9}]
        bulk = hasher.signatures(BitMatrix.from_index_sets(sets, 676))
        for i, s in enumerate(sets):
            assert (bulk[i] == hasher.signature(sorted(s))).all()

    def test_empty_set_sentinel(self):
        hasher = MinHasher(4, seed=3)
        assert (hasher.signature([]) == hasher.p).all()

    def test_no_sets_is_zero_rows(self):
        signatures = MinHasher(4, seed=3).signatures(BitMatrix.zeros(0, 676))
        assert signatures.shape == (0, 4) and signatures.dtype == np.int64

    def test_subset_minimum_dominates(self):
        """min-hash of a union is the elementwise min of the parts."""
        hasher = MinHasher(6, seed=4)
        a, b = frozenset({1, 2}), frozenset({30, 40})
        sig_union = hasher.signature(sorted(a | b))
        expected = np.minimum(hasher.signature(sorted(a)), hasher.signature(sorted(b)))
        assert (sig_union == expected).all()

    def test_invalid_n_hashes(self):
        with pytest.raises(ValueError):
            MinHasher(0)

    def test_prefix_fraction_validation(self):
        with pytest.raises(ValueError):
            MinHasher(4, prefix_fraction=0.0)
        with pytest.raises(ValueError):
            MinHasher(4, prefix_fraction=1.5)

    def test_prefix_one_equals_exact(self):
        exact = MinHasher(16, seed=9)
        truncated = MinHasher(16, seed=9, prefix_fraction=1.0)
        s = sorted({3, 77, 400})
        assert (exact.signature(s) == truncated.signature(s)).all()

    def test_small_prefix_produces_sentinels(self):
        """With a tiny prefix, most slots fail and hold the sentinel p."""
        hasher = MinHasher(200, seed=10, prefix_fraction=0.001)
        signature = hasher.signature(sorted({1, 2, 3}))
        assert (signature == hasher.p).mean() > 0.5

    def test_prefix_signatures_bulk_matches_single(self):
        hasher = MinHasher(8, seed=11, prefix_fraction=0.05)
        sets = [{1, 5, 9}, {2, 600}]
        bulk = hasher.signatures(BitMatrix.from_index_sets(sets, 676))
        for i, s in enumerate(sets):
            assert (bulk[i] == hasher.signature(sorted(s))).all()

    @given(SETS, SETS, st.integers(0, 50))
    @settings(max_examples=25)
    def test_collision_rate_tracks_jaccard(self, s1, s2, seed):
        """Pr[minhash agreement] ~ Jaccard similarity (within CLT slack)."""
        hasher = MinHasher(400, seed=seed)
        agree = float(np.mean(hasher.signature(sorted(s1)) == hasher.signature(sorted(s2))))
        jaccard = len(s1 & s2) / len(s1 | s2)
        assert abs(agree - jaccard) < 0.15


class TestMinHashLSH:
    def test_band_keys_shape(self):
        lsh = MinHashLSH(k=5, n_tables=3, seed=0)
        bands, keys = lsh.band_keys(BitMatrix.from_index_sets([{1}, {2}], 676))
        assert bands.shape == (3, 2, 5) and bands.dtype == np.int64
        assert keys.shape == (3, 2) and keys.dtype == np.uint64

    def test_identical_sets_collide_everywhere(self):
        lsh = MinHashLSH(k=5, n_tables=4, seed=1)
        bands, keys = lsh.band_keys(BitMatrix.from_index_sets([{1, 2, 3}, {1, 2, 3}], 676))
        for band, key in zip(bands, keys):
            assert (band[0] == band[1]).all() and key[0] == key[1]

    def test_disjoint_sets_rarely_collide(self):
        lsh = MinHashLSH(k=5, n_tables=4, seed=2)
        bands, __ = lsh.band_keys(BitMatrix.from_index_sets([range(50), range(100, 150)], 676))
        agreements = sum(bool((band[0] == band[1]).all()) for band in bands)
        assert agreements == 0

    def test_bands_are_signature_slices(self):
        lsh = MinHashLSH(k=3, n_tables=4, seed=5)
        matrix = BitMatrix.from_index_sets([{1, 9}, {4}, set()], 676)
        bands, __ = lsh.band_keys(matrix)
        signatures = lsh.hasher.signatures(matrix)
        for band in range(4):
            assert np.array_equal(bands[band], signatures[:, 3 * band : 3 * band + 3])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MinHashLSH(k=0, n_tables=1)
        with pytest.raises(ValueError):
            MinHashLSH(k=1, n_tables=0)


class TestCollisionProbability:
    def test_extremes(self):
        assert collision_probability(1.0, 5, 10) == pytest.approx(1.0)
        assert collision_probability(0.0, 5, 10) == 0.0

    def test_monotone_in_similarity(self):
        assert collision_probability(0.8, 5, 10) > collision_probability(0.5, 5, 10)

    def test_monotone_in_tables(self):
        assert collision_probability(0.5, 5, 20) > collision_probability(0.5, 5, 10)

    def test_invalid_similarity(self):
        with pytest.raises(ValueError):
            collision_probability(1.5, 5, 10)
