"""The sort-merge join over hashed key arrays that every LSH baseline blocks with.

:func:`repro.hamming.lsh.join_keys` joins ``(L, n)`` ``uint64`` keys and,
given the ``(L, n, K)`` keys they hash, drops the pairs whose full keys
differ.  The candidates therefore do not depend on the hash at all: forcing
every row into one bucket (a constant hash) must leave MinHash's, HARRA's
and the p-stable blocker's output exactly as it is.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import HarraLinker, MinHashLinker
from repro.baselines import minhash as minhash_module
from repro.baselines import pstable as pstable_module
from repro.baselines.pstable import EuclideanLSH
from repro.hamming.lsh import hash_keys, join_keys
from tests.golden_linkers import make_problem


def brute_force_pairs(full_a: np.ndarray, full_b: np.ndarray) -> list[int]:
    """``a * n_B + b`` once per table whose full keys of ``a`` and ``b`` agree."""
    n_b = full_b.shape[1]
    return sorted(
        a * n_b + b
        for t in range(full_a.shape[0])
        for a in range(full_a.shape[1])
        for b in range(n_b)
        if (full_a[t, a] == full_b[t, b]).all()
    )


class TestJoinKeys:
    @pytest.mark.parametrize("n_a, n_b", [(0, 5), (5, 0), (1, 1), (40, 30)])
    def test_equals_brute_force(self, n_a, n_b):
        rng = np.random.default_rng(n_a * 100 + n_b)
        full_a = rng.integers(-2, 2, size=(3, n_a, 2))
        full_b = rng.integers(-2, 2, size=(3, n_b, 2))
        pairs = join_keys(hash_keys(full_a), hash_keys(full_b), full_a, full_b)
        assert pairs.dtype == np.int64
        assert sorted(pairs.tolist()) == brute_force_pairs(full_a, full_b)

    def test_collisions_are_dropped(self):
        rng = np.random.default_rng(3)
        full_a, full_b = rng.integers(0, 3, size=(4, 25, 3)), rng.integers(0, 3, size=(4, 20, 3))
        colliding = np.zeros((4, 25), np.uint64), np.zeros((4, 20), np.uint64)
        pairs = join_keys(*colliding, full_a, full_b)
        assert sorted(pairs.tolist()) == brute_force_pairs(full_a, full_b)

    def test_tables_in_order(self):
        full = np.array([[[1], [2]], [[3], [3]]], dtype=np.int64)
        keys = hash_keys(full)
        pairs = join_keys(keys, keys, full, full).tolist()
        assert pairs[:2] == [0, 3] and sorted(pairs[2:]) == [0, 1, 2, 3]  # table 0 first

    def test_hash_depends_on_every_slot(self):
        keys = np.zeros((1, 4, 3), dtype=np.int64)
        keys[0, 1, 0], keys[0, 2, 1], keys[0, 3, 2] = 1, 1, -1
        hashed = hash_keys(keys)
        assert hashed.shape == (1, 4) and hashed.dtype == np.uint64
        assert len(set(hashed[0].tolist())) == 4


@pytest.fixture
def constant_hash(monkeypatch):
    """Route every module's key hash to one constant bucket; counts the calls."""
    calls = []

    def constant(keys):
        calls.append(keys.shape)
        return np.zeros(keys.shape[:2], dtype=np.uint64)

    monkeypatch.setattr(minhash_module, "hash_keys", constant)
    monkeypatch.setattr(pstable_module, "hash_keys", constant)
    return calls


def outcome(result):
    return (
        sorted(result.matches),
        result.n_candidates,
        result.counters,
        None if result.record_distances is None else sorted(result.record_distances.tolist()),
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: MinHashLinker(0.35, k=5, n_tables=30, seed=7),
        lambda: HarraLinker(0.35, k=5, n_tables=30, seed=7),
        lambda: HarraLinker(0.35, k=5, n_tables=30, early_pruning=False, seed=7),
        lambda: HarraLinker(0.35, k=5, n_tables=30, permutation_prefix=None, seed=7),
    ],
    ids=["minhash", "harra", "harra-no-pruning", "harra-exact"],
)
def test_minhash_blockers_ignore_forced_collisions(make, request):
    problem = make_problem()
    real = make().link(problem.dataset_a, problem.dataset_b)
    calls = request.getfixturevalue("constant_hash")
    forced = make().link(problem.dataset_a, problem.dataset_b)
    assert calls, "the constant hash was never called"
    assert real.n_candidates > 0
    assert outcome(forced) == outcome(real)


def test_euclidean_blocker_ignores_forced_collisions(request):
    rng = np.random.default_rng(7)
    points_a = rng.standard_normal((200, 6))
    points_b = points_a + 0.3 * rng.standard_normal((200, 6))

    def run():
        lsh = EuclideanLSH(6, k=3, n_tables=6, w=2.0, seed=7)
        lsh.index(points_a)
        return lsh.candidate_pairs(points_b), lsh.match(points_b, threshold=1.0)

    (real_a, real_b), real_match = run()
    calls = request.getfixturevalue("constant_hash")
    (forced_a, forced_b), forced_match = run()
    assert calls, "the constant hash was never called"
    assert 0 < real_a.size < 200 * 200
    assert np.array_equal(forced_a, real_a) and np.array_equal(forced_b, real_b)
    for got, want in zip(forced_match, real_match):
        assert np.array_equal(got, want)
