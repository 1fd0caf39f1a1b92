"""The benchmark suite's load shape: Poisson arrivals and the query stream.

``benchmarks/suite/`` is not an installed package; ``run.py`` imports its
modules with that directory on the path, so the tests put it there the
same way.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks" / "suite"))

from harness import query_stream  # noqa: E402
from loadgen import poisson_schedule  # noqa: E402


class TestPoissonArrivals:
    def test_deterministic_for_fixed_seed(self):
        assert poisson_schedule(100.0, 0.5, seed=7) == poisson_schedule(100.0, 0.5, seed=7)

    def test_seed_changes_the_process(self):
        assert poisson_schedule(100.0, 0.5, seed=7) != poisson_schedule(100.0, 0.5, seed=8)

    def test_offsets_strictly_increasing_and_positive(self):
        offsets = poisson_schedule(250.0, 0.8, seed=3)
        assert len(offsets) > 100
        assert offsets[0] > 0.0
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert offsets[-1] < 0.8

    def test_mean_gap_matches_rate(self):
        rate = 1000.0
        offsets = poisson_schedule(rate, 5.0, seed=11)
        assert len(offsets) == pytest.approx(rate * 5.0, rel=0.1)
        assert offsets[-1] / len(offsets) == pytest.approx(1.0 / rate, rel=0.1)


class TestQueryStream:
    N_ROWS = 4

    def test_deterministic_for_fixed_seed(self):
        assert query_stream(self.N_ROWS, 40, seed=5) == query_stream(self.N_ROWS, 40, seed=5)

    def test_samples_only_from_rows(self):
        stream = query_stream(self.N_ROWS, 100, seed=5)
        assert len(stream) == 100
        assert set(stream) <= set(range(self.N_ROWS))

    def test_with_replacement_covers_rows(self):
        stream = query_stream(self.N_ROWS, 200, seed=9)
        assert set(stream) == set(range(self.N_ROWS))
