"""StringMap baseline (Jin, Li & Mehrotra, DASFAA 2003) — Section 6.1.

StringMap is a FastMap-style embedding of strings into a ``d``-dimensional
Euclidean space under the edit distance metric.  For every axis it selects
two far-apart *pivot* strings and projects each string onto the line
through them; subsequent axes operate on the residual ("reduced")
distances, which subtract the projections of all previous axes:

    coord_h(s)   = (d_h(s, p1)^2 + d_h(p1, p2)^2 - d_h(s, p2)^2)
                   / (2 * d_h(p1, p2))
    d_h(x, y)^2  = ed(x, y)^2 - sum_{j < h} (coord_j(x) - coord_j(y))^2

Pivot selection iterates the "choose the farthest point" heuristic on a
sample, which is the expensive part the paper's Figure 8(b) highlights.
The paper sets ``d = 20`` per attribute.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.text.edit_distance import levenshtein


class StringMapEmbedder:
    """Embed one attribute's strings into R^d under edit distance.

    Parameters
    ----------
    d:
        Embedding dimensionality (paper: 20).
    pivot_sample:
        Sample size for the farthest-pair pivot search.
    pivot_iterations:
        Farthest-point alternations per axis (2 suffices in practice).
    """

    def __init__(
        self,
        d: int = 20,
        pivot_sample: int = 50,
        pivot_iterations: int = 2,
        seed: int | None = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        self.d = d
        self.pivot_sample = pivot_sample
        self.pivot_iterations = pivot_iterations
        self.seed = seed
        # Per axis: (pivot1, pivot2, distance(p1, p2) on that axis's
        # reduced metric, coordinates of both pivots on earlier axes).
        self._pivots: list[tuple[str, str, float]] = []
        self._pivot_coords: dict[str, list[float]] = {}
        self._ed_cache: dict[tuple[str, str], int] = {}

    # -- metric helpers ---------------------------------------------------------

    def _edit(self, s: str, t: str) -> int:
        if s == t:
            return 0
        key = (s, t) if s <= t else (t, s)
        cached = self._ed_cache.get(key)
        if cached is None:
            cached = levenshtein(s, t)
            self._ed_cache[key] = cached
        return cached

    def _reduced_sq(self, s: str, t: str, coords_s: list[float], coords_t: list[float], h: int) -> float:
        """Squared reduced distance at axis ``h``: ed^2 minus prior projections."""
        value = float(self._edit(s, t)) ** 2
        for j in range(h):
            diff = coords_s[j] - coords_t[j]
            value -= diff * diff
        return value

    # -- fitting --------------------------------------------------------------------

    def fit(self, values: Sequence[str]) -> "StringMapEmbedder":
        """Select pivots for every axis from (a sample of) ``values``."""
        if not values:
            raise ValueError("values must be non-empty")
        rng = np.random.default_rng(self.seed)
        distinct = sorted(set(values))
        if len(distinct) > self.pivot_sample:
            picks = rng.choice(len(distinct), size=self.pivot_sample, replace=False)
            sample = [distinct[int(i)] for i in picks]
        else:
            sample = distinct

        self._pivots = []
        self._pivot_coords = {s: [] for s in sample}
        sample_coords = self._pivot_coords

        for h in range(self.d):
            p1 = sample[int(rng.integers(0, len(sample)))]
            p2 = p1
            for __ in range(self.pivot_iterations):
                p2 = max(
                    sample,
                    key=lambda t: self._reduced_sq(p1, t, sample_coords[p1], sample_coords[t], h),
                )
                p1, p2 = p2, p1
            p1, p2 = p2, p1  # undo the final swap: p1 is the last anchor
            dist_sq = self._reduced_sq(p1, p2, sample_coords[p1], sample_coords[p2], h)
            dist = float(np.sqrt(max(dist_sq, 0.0)))
            self._pivots.append((p1, p2, dist))
            # Extend the sample coordinates to this axis so later axes can
            # compute their reduced distances.
            for s in sample:
                sample_coords[s].append(
                    self._coordinate(s, sample_coords[s], h, p1, p2, dist)
                )
        # Keep only the pivots' coordinates for transform-time reuse.
        pivot_strings = {p for p1, p2, __ in self._pivots for p in (p1, p2)}
        self._pivot_coords = {s: sample_coords[s] for s in pivot_strings if s in sample_coords}
        return self

    def _coordinate(
        self, s: str, coords_s: list[float], h: int, p1: str, p2: str, dist: float
    ) -> float:
        if dist <= 0.0:
            return 0.0
        d1_sq = self._reduced_sq(s, p1, coords_s, self._coords_of(p1, h), h)
        d2_sq = self._reduced_sq(s, p2, coords_s, self._coords_of(p2, h), h)
        return (d1_sq + dist * dist - d2_sq) / (2.0 * dist)

    def _coords_of(self, pivot: str, h: int) -> list[float]:
        coords = self._pivot_coords.get(pivot)
        if coords is None:
            raise RuntimeError(f"pivot {pivot!r} has no stored coordinates")
        return coords[:h]

    # -- transformation --------------------------------------------------------------

    def transform(self, values: Sequence[str]) -> np.ndarray:
        """Coordinates of ``values``: shape ``(len(values), d)``."""
        if not self._pivots:
            raise RuntimeError("fit() must run before transform()")
        out = np.zeros((len(values), self.d), dtype=np.float64)
        memo: dict[str, list[float]] = {}
        for i, value in enumerate(values):
            coords = memo.get(value)
            if coords is None:
                coords = []
                for h, (p1, p2, dist) in enumerate(self._pivots):
                    coords.append(self._coordinate(value, coords, h, p1, p2, dist))
                memo[value] = coords
            out[i] = coords
        return out

    def fit_transform(self, values: Sequence[str]) -> np.ndarray:
        return self.fit(values).transform(values)
