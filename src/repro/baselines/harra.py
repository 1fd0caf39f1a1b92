"""HARRA h-CC baseline (Kim & Lee, EDBT 2010) — Section 6.1.

HARRA represents *all* attribute values of a record by a single bigram
vector (one shared q-gram space, so identical bigrams from different
attributes land on the same position — the source of its accuracy loss on
DBLP) and links with the Min-Hash LSH mechanism in the Jaccard space.

Its distinguishing trait is the *iterative* blocking/matching: the
blocking groups ``T_l`` are processed one after the other, and records
classified as matched in table ``l`` are *removed* from all subsequent
iterations ("early pruning"), which saves time but misses pairs.

``link`` embeds bigram vectors, builds the MinHash band keys and runs the
iteration band by band: each band is one sort-merge join over the records
still active (:func:`repro.hamming.lsh.join_keys`, the join every LSH
blocker shares), minus the pairs compared in earlier bands, and one
Jaccard call over the rest.  Only the pruning itself — which B record
takes which A record — is resolved record by record, over the B records
with a close pair.  Without the pruning, h-CC finds exactly what
:class:`repro.baselines.minhash.MinHashLinker` finds with
``prefix_fraction=permutation_prefix``, its non-iterative counterpart.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.minhash import MinHashLSH, bigram_matrix
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import jaccard_distance_rows
from repro.hamming.lsh import join_keys
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET


def _prune(
    pairs_a: np.ndarray,
    pairs_b: np.ndarray,
    close_a: np.ndarray,
    close_b: np.ndarray,
    active_a: np.ndarray,
    active_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Early pruning over one band: the hits ``(rows_a, rows_b)``, B row by B
    row, of its close pairs (in ``(b, a)`` order), and which of its fresh
    pairs count as compared.  Deactivates each hit's rows in ``active_a`` /
    ``active_b``."""
    n_a, n_b = active_a.size, active_b.size
    taken_by = np.full(n_a, n_b, dtype=np.int64)  # the B row that took an A row
    hit_of = np.full(n_b, n_a, dtype=np.int64)  # a B row's hit; past every A row if none
    starts = np.flatnonzero(np.diff(close_b, prepend=-1))  # each B row's first close pair
    hits: list[int] = []
    for b, close_rows in zip(close_b.take(starts).tolist(), np.split(close_a, starts[1:])):
        for a in close_rows.tolist():
            if active_a[a]:
                active_a[a] = active_b[b] = False
                taken_by[a], hit_of[b] = b, a
                hits += (a, b)
                break
    counted = taken_by.take(pairs_a) >= pairs_b
    counted &= pairs_a <= hit_of.take(pairs_b)
    hit_pairs = np.array(hits, dtype=np.int64).reshape(-1, 2).T
    return hit_pairs[0], hit_pairs[1], counted


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
        permutation_prefix: float | None = 0.02,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"Jaccard distance threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.k = k
        self.n_tables = n_tables
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.permutation_prefix = permutation_prefix
        self.seed = seed

    def _match(
        self,
        bits_a: BitMatrix,
        bits_b: BitMatrix,
        bands_a: tuple[np.ndarray, np.ndarray],
        bands_b: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """h-CC's iteration over the blocking groups: ``(rows_a, rows_b)`` of
        the matches and the number of pairs compared.

        Per band: one join over the rows still active when it starts, minus
        the pairs compared in earlier bands, and one Jaccard call over the
        rest.  Early pruning then resolves the band in ``(b, a)``
        order: a B row takes its first close A row that no earlier B row of
        the band took, and both leave the process; a pair counts as compared
        unless it follows that hit or its A row was taken earlier in the
        band (the pairs h-CC's record-at-a-time walk never measures).
        """
        (full_a, keys_a), (full_b, keys_b) = bands_a, bands_b
        n_a, n_b = bits_a.n_rows, bits_b.n_rows
        active_a, active_b = np.ones(n_a, dtype=bool), np.ones(n_b, dtype=bool)
        # a * n_b + b of the compared pairs with both ends active, ascending,
        # then a sentinel above every code (a search never runs off the end)
        compared = np.full(1, np.iinfo(np.int64).max)
        n_compared = 0
        matched = [(np.empty(0, dtype=np.int64),) * 2]
        for band in range(self.n_tables):
            rows_a, rows_b = np.flatnonzero(active_a), np.flatnonzero(active_b)
            own_a, own_b = np.s_[band : band + 1, rows_a], np.s_[band : band + 1, rows_b]
            pairs = join_keys(keys_a[own_a], keys_b[own_b], full_a[own_a], full_b[own_b])
            sub_a, sub_b = np.divmod(pairs, rows_b.size)
            codes = rows_a.take(sub_a) * n_b + rows_b.take(sub_b)
            codes.sort()  # ascending: the searches walk `compared` in order
            at = compared.searchsorted(codes)
            fresh = compared.take(at) != codes
            codes, at = codes.compress(fresh), at.compress(fresh)
            pairs_a, pairs_b = np.divmod(codes, n_b)
            close = jaccard_distance_rows(bits_a.words, pairs_a, bits_b.words, pairs_b)
            close = close <= self.threshold
            close_a, close_b = pairs_a.compress(close), pairs_b.compress(close)
            walk = close_b.argsort(kind="stable")  # (b, a): the order h-CC walks a band in
            close_a, close_b = close_a.take(walk), close_b.take(walk)
            close_a, close_b, counted = _prune(
                pairs_a, pairs_b, close_a, close_b, active_a, active_b
            )
            n_compared += int(np.count_nonzero(counted))
            matched.append((close_a, close_b))
            alive = active_a.take(pairs_a) & active_b.take(pairs_b)
            compared = np.insert(compared, at.compress(alive), codes.compress(alive))
        out_a, out_b = (np.concatenate(side) for side in zip(*matched))
        return out_a, out_b, n_compared

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """Iterative blocking/matching over the MinHash blocking groups."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            bits_a, bits_b = (bigram_matrix(rows, self.scheme) for rows in (rows_a, rows_b))
        with timed(timings, "index"):
            lsh = MinHashLSH(self.k, self.n_tables, self.seed, self.permutation_prefix)
            bands_a, bands_b = lsh.band_keys(bits_a), lsh.band_keys(bits_b)
        with timed(timings, "match"):
            out_a, out_b, n_candidates = self._match(bits_a, bits_b, bands_a, bands_b)
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=n_candidates,
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            counters={"pairs_verified": float(n_candidates), "n_tables": float(lsh.n_tables)},
        )
