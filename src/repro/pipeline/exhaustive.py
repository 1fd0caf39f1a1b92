"""Exhaustive (no-blocking) reference linker.

Verifies *every* cross-dataset pair against the record-level compact
Hamming threshold — the PC upper bound any blocking method is measured
against, and the simplest possible linker: no blocking step at all, just
embed -> verify all pairs.  The verify walks the quadratic pair space as
encoded-id ranges, one block at a time through the shared blocked verify,
so memory stays flat: only the accepted pairs are kept.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.pipeline.result import LinkageResult, timed


class ExhaustiveLinker:
    """All-pairs compact-Hamming linkage (the blocking-free upper bound).

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    """

    def __init__(
        self,
        threshold: int,
        scheme: Any = None,
        seed: int | None = None,
        sample_size: int = 1000,
    ):
        self.threshold = threshold
        self.scheme = scheme
        self.seed = seed
        self.sample_size = sample_size

    def link(self, dataset_a: Any, dataset_b: Any) -> LinkageResult:
        """Embed on a sample of A, then verify every ``(a, b)`` pair,
        ``DEFAULT_BLOCK_ROWS`` encoded ids at a time."""
        # Runtime imports: keep this module import-leaf (see package docstring).
        from repro.core.encoder import sampled_embedding
        from repro.core.qgram import QGramScheme
        from repro.hamming.distance import DEFAULT_BLOCK_ROWS, verify_pairs
        from repro.protocol import value_rows
        from repro.text.alphabet import TEXT_ALPHABET

        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        scheme = self.scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            matrix_a, matrix_b = sampled_embedding(
                rows_a, rows_b, scheme, self.seed, self.sample_size
            )
        words_a, words_b = matrix_a.words, matrix_b.words
        n_b, total = len(rows_b), len(rows_a) * len(rows_b)
        with timed(timings, "match"):
            kept = [(np.empty(0, dtype=np.int64),) * 3]  # no pairs still concatenate
            for lo in range(0, total, DEFAULT_BLOCK_ROWS):
                block = np.arange(lo, min(lo + DEFAULT_BLOCK_ROWS, total), dtype=np.int64)
                kept.append(verify_pairs(words_a, words_b, (block, n_b), self.threshold))
            out_a, out_b, distances = map(np.concatenate, zip(*kept))
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=total,
            comparison_space=total,
            timings=timings,
            record_distances=distances,
            counters={"pairs_verified": float(total)},
        )
