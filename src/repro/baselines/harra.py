"""HARRA h-CC baseline (Kim & Lee, EDBT 2010) — Section 6.1.

HARRA represents *all* attribute values of a record by a single bigram
vector (one shared q-gram space, so identical bigrams from different
attributes land on the same position — the source of its accuracy loss on
DBLP) and links with the Min-Hash LSH mechanism in the Jaccard space.

Its distinguishing trait is the *iterative* blocking/matching: the
blocking groups ``T_l`` are processed one after the other, and records
classified as matched in table ``l`` are *removed* from all subsequent
iterations ("early pruning"), which saves time but misses pairs.

``link`` embeds bigram vectors, builds the MinHash band keys and runs one
fused candidate/verify iteration — the iteration is inherently
sequential (each band's matches prune the next band's buckets), so
unlike the other linkers it cannot split candidate generation from
verification.  The non-iterative counterpart is
:class:`repro.baselines.minhash.MinHashLinker`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.minhash import MinHashLSH, bigram_matrix
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import jaccard_distance_rows
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET


class HarraLinker:
    """The h-CC linkage algorithm of HARRA.

    Parameters
    ----------
    threshold:
        Jaccard *distance* threshold (paper: 0.35 for PL, 0.45 for PH).
    k:
        MinHash band size (paper: K = 5).
    n_tables:
        Number of blocking groups; HARRA picks these empirically (paper:
        L = 30 for PL, L = 90 for PH — already doubled for better PC).
    early_pruning:
        Remove matched records from later iterations (HARRA's behaviour).
        Disable for the ablation that isolates the cost of pruning.
    permutation_prefix:
        Fraction of each permutation HARRA's implementation examines when
        looking for "the index of the minimum nonzero element" (Section
        6.1) — the paper reports that similar records frequently end up
        in different buckets because the prefix holds only zeros.  The
        default (0.02) reproduces that recall loss; pass ``None`` for an
        exact MinHash (an idealised HARRA, used by the ablation bench).
    """

    def __init__(
        self,
        threshold: float = 0.35,
        k: int = 5,
        n_tables: int = 30,
        scheme: QGramScheme | None = None,
        early_pruning: bool = True,
        permutation_prefix: float | None = 0.02,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"Jaccard distance threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.k = k
        self.n_tables = n_tables
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.early_pruning = early_pruning
        self.permutation_prefix = permutation_prefix
        self.seed = seed

    def _match(
        self,
        bits_a: BitMatrix,
        bits_b: BitMatrix,
        keys_a: list[np.ndarray],
        keys_b: list[np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """h-CC's fused candidate/verify iteration over the blocking groups:
        ``(rows_a, rows_b)`` of the matches and the number of pairs compared.
        Per band and B record, one Jaccard call measures the bucket's active,
        not yet compared A records; with early pruning, the pairs after the
        first match count as not compared."""
        words_a, words_b, n_b = bits_a.words, bits_b.words, bits_b.n_rows
        active_a = np.ones(bits_a.n_rows, dtype=bool)
        active_b = np.ones(n_b, dtype=bool)
        matched_a: list[int] = []
        matched_b: list[int] = []
        compared: set[int] = set()  # a * n_b + b

        for band_a, band_b in zip(keys_a, keys_b):
            a_keys, b_keys = band_a.tolist(), band_b.tolist()
            buckets: dict[bytes, list[int]] = {}
            for i in np.flatnonzero(active_a).tolist():
                buckets.setdefault(a_keys[i], []).append(i)
            for j in np.flatnonzero(active_b).tolist():
                ids_a = buckets.get(b_keys[j])
                if not ids_a:
                    continue
                fresh = [i for i in ids_a if active_a[i] and i * n_b + j not in compared]
                if not fresh:
                    continue
                close = jaccard_distance_rows(words_a, fresh, words_b, j) <= self.threshold
                hits = [i for i, hit in zip(fresh, close.tolist()) if hit]
                if self.early_pruning and hits:
                    # h-CC: matched records leave the process.
                    del hits[1:]
                    del fresh[fresh.index(hits[0]) + 1 :]
                    active_a[hits[0]] = False
                    active_b[j] = False
                compared.update([i * n_b + j for i in fresh])
                matched_a += hits
                matched_b += [j] * len(hits)

        return (
            np.asarray(matched_a, dtype=np.int64),
            np.asarray(matched_b, dtype=np.int64),
            len(compared),
        )

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """Iterative blocking/matching over the MinHash blocking groups."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            bits_a, bits_b = (bigram_matrix(rows, self.scheme) for rows in (rows_a, rows_b))
        with timed(timings, "index"):
            lsh = MinHashLSH(self.k, self.n_tables, self.seed, self.permutation_prefix)
            keys_a, keys_b = lsh.band_keys(bits_a), lsh.band_keys(bits_b)
        with timed(timings, "match"):
            out_a, out_b, n_candidates = self._match(bits_a, bits_b, keys_a, keys_b)
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=n_candidates,
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            counters={"pairs_verified": float(n_candidates)},
        )
