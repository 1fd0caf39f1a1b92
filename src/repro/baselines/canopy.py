"""Canopy clustering blocking (Cohen & Richman [6]) — Related Work.

The second classic blocking technique the paper's Section 2 discusses:
"a computationally cheap clustering approach to create high-dimensional
overlapping clusters, from which blocks of candidate record pairs can then
be generated".

Implementation: the cheap distance is the Jaccard distance on record-level
bigram vectors (cheap because it is two popcounts, no dynamic programming).
Starting from the pooled records of both datasets, a random seed record
founds a *canopy* containing every record within ``loose`` distance;
records within ``tight`` distance are removed from the candidate-seed
pool.  Candidate pairs are the cross-dataset pairs sharing a canopy.

``link`` embeds bigram vectors plus the A-sample c-vectors
(:func:`~repro.core.encoder.sampled_embedding`), clusters canopies as its
blocking step and verifies with the shared compact-Hamming
:func:`~repro.hamming.distance.verify_pairs`, like the other reference
baselines.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.minhash import bigram_matrix
from repro.core.encoder import sampled_embedding
from repro.core.qgram import QGramScheme
from repro.hamming.distance import decode_pairs, jaccard_distance_rows, verify_pairs
from repro.hamming.lsh import sorted_unique
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET


class CanopyLinker:
    """Canopy-clustering blocking with Hamming verification.

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    loose:
        Jaccard distance under which a record joins a canopy.
    tight:
        Jaccard distance under which a record stops seeding new canopies
        (must be <= loose; smaller tight = more overlapping canopies).
    """

    def __init__(
        self,
        threshold: int,
        loose: float = 0.6,
        tight: float = 0.3,
        scheme: QGramScheme | None = None,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= tight <= loose <= 1.0:
            raise ValueError(
                f"need 0 <= tight <= loose <= 1, got tight={tight}, loose={loose}"
            )
        self.threshold = threshold
        self.loose = loose
        self.tight = tight
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.seed = seed

    def _candidates(self, words: np.ndarray, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
        """Seed canopies over the pooled bigram rows (A then B), each seed
        against every remaining row in one call; cross-dataset co-members pair."""
        rng = np.random.default_rng(self.seed)
        pool = list(range(n_a + n_b))
        rng.shuffle(pool)
        remaining = np.ones(n_a + n_b, dtype=bool)
        parts = [np.empty(0, dtype=np.int64)]
        for seed_idx in pool:
            if not remaining[seed_idx]:
                continue
            others = np.flatnonzero(remaining)
            distances = jaccard_distance_rows(words, seed_idx, words, others)
            remaining[others[distances <= self.tight]] = False
            remaining[seed_idx] = False
            canopy = others[distances <= self.loose]
            canopy_a, canopy_b = canopy[canopy < n_a], canopy[canopy >= n_a] - n_a
            parts.append((canopy_a[:, None] * n_b + canopy_b).ravel())
        return decode_pairs(sorted_unique(np.concatenate(parts)), n_b)

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> canopy blocking -> Hamming verify."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            bits_a, bits_b = (bigram_matrix(rows, self.scheme) for rows in (rows_a, rows_b))
            matrix_a, matrix_b = sampled_embedding(rows_a, rows_b, self.scheme, self.seed)
        with timed(timings, "index"):
            words = np.concatenate([bits_a.words, bits_b.words])
            candidates = self._candidates(words, len(rows_a), len(rows_b))
        with timed(timings, "match"):
            out_a, out_b, distances = verify_pairs(
                matrix_a.words, matrix_b.words, candidates, self.threshold
            )
        n_candidates = int(candidates[0].size)
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=n_candidates,
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            record_distances=distances,
            counters={"pairs_verified": float(n_candidates)},
        )
