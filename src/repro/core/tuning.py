"""Choosing K empirically (Section 4.2, following Karapiperis & Verykios [16]).

Equation (2) guarantees completeness for *any* K by adjusting L, so K is a
pure efficiency knob: too small and the buckets are overpopulated by
dissimilar pairs, too large and building the extra blocking groups
dominates.  The paper's reference [16] picks K "by sampling record pairs
and by experimenting with several values for K, choosing the value that
minimizes the estimated running time" — implemented here verbatim: run
the blocking/matching pipeline on a sample per candidate K, fit the
per-table and per-candidate costs, and extrapolate to the full dataset
size.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.hamming.theory import hamming_lsh_parameters


@dataclass(frozen=True)
class KCandidate:
    """Measurements for one candidate K on the sample."""

    k: int
    n_tables: int
    sample_seconds: float
    sample_candidates: int
    estimated_seconds: float


@dataclass(frozen=True)
class KSelection:
    """The outcome of the empirical K search."""

    best_k: int
    candidates: tuple[KCandidate, ...]

    def by_k(self, k: int) -> KCandidate:
        for candidate in self.candidates:
            if candidate.k == k:
                return candidate
        raise KeyError(f"K = {k} was not among the evaluated candidates")


def _sample_rows(matrix: BitMatrix, n: int, rng: np.random.Generator) -> BitMatrix:
    if matrix.n_rows <= n:
        return matrix
    picks = np.sort(rng.choice(matrix.n_rows, size=n, replace=False))
    return BitMatrix(matrix.words[picks].copy(), matrix.n_bits)


def measure_k(
    sample_a: BitMatrix,
    sample_b: BitMatrix,
    k: int,
    threshold: int,
    delta: float = 0.1,
    seed: int | None = None,
) -> tuple[float, int, int]:
    """Wall-clock, candidate count and L of one blocking/matching run."""
    start = time.perf_counter()
    lsh = HammingLSH(
        n_bits=sample_a.n_bits, k=k, threshold=threshold, delta=delta, seed=seed
    )
    lsh.index(sample_a)
    counters: dict[str, float] = {}
    lsh.match(sample_a.words, sample_b, counters=counters)
    return time.perf_counter() - start, int(counters["pairs_unique"]), lsh.n_tables


def choose_k(
    matrix_a: BitMatrix,
    matrix_b: BitMatrix,
    threshold: int,
    k_values: Sequence[int] = (10, 15, 20, 25, 30, 35, 40),
    sample_size: int = 500,
    delta: float = 0.1,
    seed: int | None = None,
) -> KSelection:
    """Pick the K that minimises estimated full-dataset running time.

    The estimate scales the sample measurements to the full sizes: table
    construction and probing scale with ``L * n``, candidate verification
    scales with the candidate count, which for LSH buckets grows roughly
    with ``(n_a * n_b) / sample_pairs`` times the sample's candidate count.
    """
    if not k_values:
        raise ValueError("k_values must be non-empty")
    if threshold >= matrix_a.n_bits:
        raise ValueError(
            f"threshold {threshold} must be below the vector width {matrix_a.n_bits}"
        )
    rng = np.random.default_rng(seed)
    sample_a = _sample_rows(matrix_a, sample_size, rng)
    sample_b = _sample_rows(matrix_b, sample_size, rng)
    pair_scale = (matrix_a.n_rows * matrix_b.n_rows) / (
        sample_a.n_rows * sample_b.n_rows
    )

    candidates = []
    for k in k_values:
        elapsed, n_candidates, n_tables = measure_k(
            sample_a, sample_b, k, threshold, delta, seed
        )
        # Split the sample cost into a per-table-row part and a
        # per-candidate part, then rescale each to the full problem.
        __, tables = hamming_lsh_parameters(threshold, matrix_a.n_bits, k, delta)
        total_work = n_tables * (sample_a.n_rows + sample_b.n_rows) + n_candidates
        per_unit = elapsed / max(total_work, 1)
        estimated = per_unit * (
            tables * (matrix_a.n_rows + matrix_b.n_rows) + n_candidates * pair_scale
        )
        candidates.append(
            KCandidate(
                k=k,
                n_tables=tables,
                sample_seconds=elapsed,
                sample_candidates=n_candidates,
                estimated_seconds=estimated,
            )
        )
    best = min(candidates, key=lambda c: c.estimated_seconds)
    return KSelection(best_k=best.k, candidates=tuple(candidates))
