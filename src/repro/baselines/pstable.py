"""Euclidean (p-stable) LSH — Datar, Immorlica, Indyk & Mirrokni [7].

The SM-EB baseline blocks StringMap vectors with the 2-stable LSH family

    h(v) = floor((a . v + b) / w),   a ~ N(0, I),  b ~ U[0, w).

For two points at Euclidean distance ``c`` the collision probability of a
single base hash has the closed form

    p(c) = 1 - 2 * Phi(-w / c) - (2 c / (sqrt(2 pi) w)) * (1 - exp(-w^2 / (2 c^2)))

which drives Equation (2) for the number of blocking groups, exactly as
the Hamming bound does for HB.

:class:`EuclideanLSH` mirrors :class:`repro.hamming.lsh.HammingLSH`'s
``index`` / ``candidate_pairs`` API, so :class:`repro.baselines.smeb.SMEBLinker`
blocks with it exactly as BfH blocks with ``HammingLSH``.  A table's key is
a row's ``K`` floors, hashed to one ``uint64``; ``index`` keeps dataset A's
floors and hashes, and ``candidate_pairs`` is the sort-merge join every LSH
blocker shares (:func:`repro.hamming.lsh.join_keys`), which drops the pairs
whose floors differ.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hamming.distance import decode_pairs
from repro.hamming.lsh import hash_keys, join_keys, sorted_unique
from repro.hamming.theory import optimal_table_count

#: Datar et al. recommend a bucket width of a few units; w = 4 is the
#: customary default in the LSH literature.
DEFAULT_BUCKET_WIDTH = 4.0


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def collision_probability(distance: float, w: float = DEFAULT_BUCKET_WIDTH) -> float:
    """Single-hash collision probability for two points at ``distance``.

    >>> collision_probability(0.0)
    1.0
    >>> 0 < collision_probability(4.5) < collision_probability(1.0) < 1
    True
    """
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if w <= 0:
        raise ValueError(f"bucket width must be > 0, got {w}")
    if distance == 0.0:
        return 1.0
    ratio = w / distance
    return (
        1.0
        - 2.0 * _normal_cdf(-ratio)
        - (2.0 / (math.sqrt(2.0 * math.pi) * ratio)) * (1.0 - math.exp(-(ratio**2) / 2.0))
    )


def euclidean_lsh_parameters(
    threshold: float, k: int, delta: float = 0.1, w: float = DEFAULT_BUCKET_WIDTH
) -> tuple[float, int]:
    """``(p(theta)^K, L)`` via Equation (2) for the Euclidean family."""
    p = collision_probability(threshold, w)
    p_composite = p**k
    return p_composite, optimal_table_count(p_composite, delta)


class EuclideanLSH:
    """Blocking groups over R^dim with the p-stable hash family.

    Mirrors :class:`repro.hamming.lsh.HammingLSH`'s API: ``index`` dataset
    A, then ``candidate_pairs`` / ``match`` against dataset B.
    """

    def __init__(
        self,
        dim: int,
        k: int,
        threshold: float | None = None,
        delta: float = 0.1,
        n_tables: int | None = None,
        w: float = DEFAULT_BUCKET_WIDTH,
        seed: int | None = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        if threshold is None and n_tables is None:
            raise ValueError("provide threshold (for Equation 2) or an explicit n_tables")
        self.dim = dim
        self.k = k
        self.w = w
        self.threshold = threshold
        if n_tables is None:
            __, n_tables = euclidean_lsh_parameters(threshold, k, delta, w)
        self.n_tables = n_tables
        rng = np.random.default_rng(seed)
        # One (dim, K) projection matrix and one (K,) offset per table.
        self._projections = [rng.standard_normal((dim, k)) for __ in range(n_tables)]
        self._offsets = [rng.uniform(0.0, w, size=k) for __ in range(n_tables)]
        self._indexed: np.ndarray | None = None
        self._keys_a: tuple[np.ndarray, np.ndarray] | None = None

    def _keys(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Every table's ``K`` floors per row, ``(L, n, K)``, and their
        ``(L, n)`` hashes: the key arrays of :func:`join_keys`."""
        floors = np.stack(
            [
                np.floor((points @ projection + offset) / self.w).astype(np.int64)
                for projection, offset in zip(self._projections, self._offsets)
            ]
        )
        return floors, hash_keys(floors)

    def index(self, points: np.ndarray) -> None:
        """Store dataset A's vectors (row index = record id) and their keys."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"expected shape (n, {self.dim}), got {points.shape}")
        self._indexed = points
        self._keys_a = self._keys(points)

    def candidate_pairs(self, points_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """De-duplicated candidate pairs against the indexed dataset, sorted by
        ``a * n_B + b``: every table's sort-merge join, a pair once."""
        points_b = np.asarray(points_b, dtype=np.float64)
        if self._keys_a is None:
            raise RuntimeError("call index() before candidate_pairs()")
        (floors_a, keys_a), (floors_b, keys_b) = self._keys_a, self._keys(points_b)
        pairs = sorted_unique(join_keys(keys_a, keys_b, floors_a, floors_b))
        return decode_pairs(pairs, points_b.shape[0])

    def match(
        self, points_b: np.ndarray, threshold: float | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Candidates filtered by Euclidean distance <= threshold."""
        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise ValueError("no matching threshold available")
        rows_a, rows_b = self.candidate_pairs(points_b)
        if rows_a.size == 0:
            return rows_a, rows_b, np.empty(0, dtype=np.float64)
        assert self._indexed is not None
        deltas = self._indexed[rows_a] - np.asarray(points_b, dtype=np.float64)[rows_b]
        distances = np.sqrt((deltas * deltas).sum(axis=1))
        keep = distances <= threshold
        return rows_a[keep], rows_b[keep], distances[keep]
