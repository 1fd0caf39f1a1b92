"""Tests for repro.baselines.pstable — the Euclidean LSH family."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.pstable import (
    EuclideanLSH,
    collision_probability,
    euclidean_lsh_parameters,
)


class TestCollisionProbability:
    def test_zero_distance_certain(self):
        assert collision_probability(0.0) == 1.0

    def test_monotone_decreasing(self):
        probs = [collision_probability(c) for c in (0.5, 1, 2, 4, 8, 16)]
        assert probs == sorted(probs, reverse=True)

    def test_range(self):
        for c in (0.1, 1.0, 10.0, 100.0):
            assert 0.0 < collision_probability(c) < 1.0

    def test_wider_buckets_collide_more(self):
        assert collision_probability(2.0, w=8.0) > collision_probability(2.0, w=2.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            collision_probability(-1.0)
        with pytest.raises(ValueError):
            collision_probability(1.0, w=0.0)

    def test_monte_carlo_agreement(self):
        """Closed form matches simulation of the hash family."""
        rng = np.random.default_rng(0)
        c, w, trials = 3.0, 4.0, 40_000
        a = rng.standard_normal(trials)
        b = rng.uniform(0, w, trials)
        x, y = 0.0, c
        collide = np.floor((a * x + b) / w) == np.floor((a * y + b) / w)
        assert collide.mean() == pytest.approx(collision_probability(c, w), abs=0.01)

    def test_parameters_bundle(self):
        p, tables = euclidean_lsh_parameters(threshold=4.5, k=5, w=18.0)
        assert 0 < p < 1
        assert tables >= 1


class TestEuclideanLSH:
    @pytest.fixture
    def points(self):
        rng = np.random.default_rng(1)
        return rng.standard_normal((100, 8)) * 10

    def test_identical_points_always_candidates(self, points):
        lsh = EuclideanLSH(dim=8, k=4, n_tables=6, w=4.0, seed=2)
        lsh.index(points)
        rows_a, rows_b = lsh.candidate_pairs(points)
        pairs = set(zip(rows_a.tolist(), rows_b.tolist()))
        for i in range(100):
            assert (i, i) in pairs

    def test_match_filters_distance(self, points):
        lsh = EuclideanLSH(dim=8, k=4, n_tables=6, w=8.0, seed=3)
        lsh.index(points)
        noisy = points + np.random.default_rng(4).standard_normal(points.shape) * 0.1
        rows_a, rows_b, dists = lsh.match(noisy, threshold=2.0)
        assert (dists <= 2.0).all()
        for a, b, d in zip(rows_a, rows_b, dists):
            assert np.linalg.norm(points[a] - noisy[b]) == pytest.approx(d)

    def test_nearby_points_found(self, points):
        lsh = EuclideanLSH(dim=8, k=4, threshold=1.0, delta=0.1, w=8.0, seed=5)
        lsh.index(points)
        noisy = points + np.random.default_rng(6).standard_normal(points.shape) * 0.05
        rows_a, rows_b, __ = lsh.match(noisy, threshold=1.0)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        recall = sum((i, i) in found for i in range(100)) / 100
        assert recall >= 0.9

    def test_candidates_deduplicated(self, points):
        lsh = EuclideanLSH(dim=8, k=2, n_tables=10, w=20.0, seed=7)
        lsh.index(points)
        rows_a, rows_b = lsh.candidate_pairs(points)
        encoded = rows_a * 100 + rows_b
        assert len(np.unique(encoded)) == len(encoded)

    def test_query_before_index_rejected(self, points):
        lsh = EuclideanLSH(dim=8, k=2, n_tables=2, seed=8)
        with pytest.raises(RuntimeError):
            lsh.candidate_pairs(points)

    def test_dimension_validated(self, points):
        lsh = EuclideanLSH(dim=4, k=2, n_tables=2, seed=9)
        with pytest.raises(ValueError):
            lsh.index(points)  # dim 8 points into dim 4 index

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            EuclideanLSH(dim=0, k=2, n_tables=2)
        with pytest.raises(ValueError):
            EuclideanLSH(dim=2, k=0, n_tables=2)
        with pytest.raises(ValueError):
            EuclideanLSH(dim=2, k=2)  # neither threshold nor n_tables

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_keys_deterministic(self, seed):
        points = np.random.default_rng(seed).standard_normal((5, 3))
        l1 = EuclideanLSH(dim=3, k=2, n_tables=2, seed=42)
        l2 = EuclideanLSH(dim=3, k=2, n_tables=2, seed=42)
        for got, want in zip(l1._keys(points), l2._keys(points)):
            assert np.array_equal(got, want)
