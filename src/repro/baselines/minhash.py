"""MinHash LSH over q-gram sets (the Jaccard space J).

The HARRA baseline [18] blocks records by Min-Hashing their bigram sets:
each base hash function applies a random permutation of the q-gram vector
indexes and returns the index of the minimum non-zero element; ``K`` base
hashes form a band (blocking key) and ``L`` bands form the blocking
groups.

Random permutations are realised permutation-free with universal hashes
``g(x) = ((a*x + b) mod P) mod U`` — the standard MinHash construction:
``min_{x in U_s} g(x)`` is distributed like the first set element under a
random permutation, so ``Pr[minhash(A) = minhash(B)] ≈ Jaccard(A, B)``.

The signature computation is vectorised with ``numpy.minimum.reduceat``
over the concatenated element arrays of all records.

Besides the raw machinery this module provides :class:`MinHashLinker` —
a *non-iterative* MinHash LSH linker that runs all bands to completion,
the ablation partner of HARRA's early-pruning h-CC.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.cvector import HASH_PRIME
from repro.core.qgram import QGramScheme
from repro.hamming.distance import decode_pairs, jaccard_distance_sets
from repro.hamming.lsh import sorted_unique
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET


def record_bigram_set(values: Sequence[str], scheme: QGramScheme) -> frozenset[int]:
    """One q-gram index set for the whole record (all attributes merged)."""
    out: set[int] = set()
    for value in values:
        out |= scheme.index_set(value)
    return frozenset(out)


class MinHasher:
    """``n_hashes`` independent MinHash functions over integer sets.

    Parameters
    ----------
    n_hashes:
        Number of independent hash functions.
    prefix_fraction:
        Emulate HARRA's truncated-permutation implementation: only hash
        values inside the first ``prefix_fraction`` of the range count
        ("we mostly end up with an index holding 0, which implies that
        more elements of each permutation should be used" — Section 6.1).
        When a set has no element in the examined prefix, the slot takes
        the sentinel value ``p``, so similar records can land in
        different buckets — the recall loss the paper reports for HARRA.
        ``None`` (default) is the exact, permutation-free MinHash.
    """

    def __init__(
        self,
        n_hashes: int,
        seed: int | None = None,
        p: int = HASH_PRIME,
        prefix_fraction: float | None = None,
    ) -> None:
        if n_hashes < 1:
            raise ValueError(f"n_hashes must be >= 1, got {n_hashes}")
        if prefix_fraction is not None and not 0.0 < prefix_fraction <= 1.0:
            raise ValueError(f"prefix_fraction must be in (0, 1], got {prefix_fraction}")
        rng = np.random.default_rng(seed)
        self.n_hashes = n_hashes
        self.p = p
        self.prefix_fraction = prefix_fraction
        self._cutoff = p if prefix_fraction is None else int(p * prefix_fraction)
        self._a = rng.integers(1, p, size=n_hashes, dtype=np.int64)
        self._b = rng.integers(1, p, size=n_hashes, dtype=np.int64)

    def signature(self, elements: Sequence[int]) -> np.ndarray:
        """The MinHash signature of one set (shape ``(n_hashes,)``)."""
        if not elements:
            return np.full(self.n_hashes, self.p, dtype=np.int64)
        xs = np.asarray(sorted(elements), dtype=np.int64)
        values = (self._a[:, None] * xs[None, :] + self._b[:, None]) % self.p
        values = np.where(values < self._cutoff, values, self.p)
        return values.min(axis=1)

    def signatures(self, sets: Sequence[frozenset[int]]) -> np.ndarray:
        """Signature matrix for many sets (shape ``(n_sets, n_hashes)``).

        Empty sets get the sentinel signature ``p`` in every slot, which
        never collides with a non-empty set's minimum (< p).  No sets give
        a ``(0, n_hashes)`` matrix.
        """
        lengths = np.asarray([len(s) for s in sets], dtype=np.int64)
        output = np.full((len(sets), self.n_hashes), self.p, dtype=np.int64)
        non_empty = np.flatnonzero(lengths)
        if non_empty.size == 0:
            return output
        elements = np.concatenate(
            [np.fromiter(sets[int(i)], dtype=np.int64, count=lengths[i]) for i in non_empty]
        )
        offsets = np.zeros(non_empty.size, dtype=np.int64)
        np.cumsum(lengths[non_empty][:-1], out=offsets[1:])
        for h in range(self.n_hashes):
            values = (self._a[h] * elements + self._b[h]) % self.p
            values = np.where(values < self._cutoff, values, self.p)
            output[non_empty, h] = np.minimum.reduceat(values, offsets)
        return output


class MinHashLSH:
    """Banded MinHash blocking: ``L`` bands of ``K`` rows each.

    A pair is formulated when all ``K`` signature slots of at least one
    band agree — collision probability ``1 - (1 - s^K)^L`` for Jaccard
    similarity ``s``.
    """

    def __init__(
        self,
        k: int,
        n_tables: int,
        seed: int | None = None,
        prefix_fraction: float | None = None,
    ) -> None:
        if k < 1 or n_tables < 1:
            raise ValueError(f"K and L must be >= 1, got K={k}, L={n_tables}")
        self.k = k
        self.n_tables = n_tables
        self.hasher = MinHasher(k * n_tables, seed=seed, prefix_fraction=prefix_fraction)

    def band_keys(self, sets: Sequence[frozenset[int]]) -> list[np.ndarray]:
        """One key array per band; keys are hashable row tuples packed as bytes."""
        signatures = self.hasher.signatures(sets)
        keys: list[np.ndarray] = []
        for band in range(self.n_tables):
            chunk = np.ascontiguousarray(
                signatures[:, band * self.k : (band + 1) * self.k]
            )
            keys.append(chunk.view([("", chunk.dtype)] * self.k).ravel())
        return keys


def collision_probability(jaccard_similarity: float, k: int, n_tables: int) -> float:
    """``1 - (1 - s^K)^L``: the banded MinHash collision probability."""
    if not 0.0 <= jaccard_similarity <= 1.0:
        raise ValueError(f"similarity must be in [0, 1], got {jaccard_similarity}")
    return 1.0 - (1.0 - jaccard_similarity**k) ** n_tables


class MinHashLinker:
    """Non-iterative MinHash LSH linkage — HARRA without the heuristics.

    Same Jaccard space and banding as HARRA's h-CC, but every band
    contributes to one de-duplicated candidate set, no early pruning
    removes matched records, and the exact (permutation-free) MinHash is
    the default — the idealised ablation partner that isolates what
    HARRA's iterative shortcuts cost in recall.

    Parameters
    ----------
    threshold:
        Jaccard *distance* threshold for the matching step.
    k, n_tables:
        Band size and band count (HARRA's K and L).
    prefix_fraction:
        ``None`` (default) for the exact MinHash; a fraction reproduces
        HARRA's truncated-permutation implementation.
    """

    def __init__(
        self,
        threshold: float = 0.35,
        k: int = 5,
        n_tables: int = 30,
        scheme: QGramScheme | None = None,
        prefix_fraction: float | None = None,
        seed: int | None = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"Jaccard distance threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.k = k
        self.n_tables = n_tables
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.prefix_fraction = prefix_fraction
        self.seed = seed

    def _candidates(
        self, keys_a: list[np.ndarray], keys_b: list[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """De-duplicated candidates from *all* bands."""
        n_a, n_b = keys_a[0].size, keys_b[0].size
        parts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for band_a, band_b in zip(keys_a, keys_b):
            buckets: dict[object, list[int]] = {}
            for i in range(n_a):
                buckets.setdefault(band_a[i].item(), []).append(i)
            for j in range(n_b):
                ids_a = buckets.get(band_b[j].item())
                if ids_a:
                    parts.append(np.asarray(ids_a, dtype=np.int64) * n_b + j)
        return decode_pairs(sorted_unique(np.concatenate(parts)), n_b)

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> index -> all-band candidates -> Jaccard verify."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            sets_a = [record_bigram_set(row, self.scheme) for row in rows_a]
            sets_b = [record_bigram_set(row, self.scheme) for row in rows_b]
        with timed(timings, "index"):
            lsh = MinHashLSH(
                k=self.k,
                n_tables=self.n_tables,
                seed=self.seed,
                prefix_fraction=self.prefix_fraction,
            )
            keys_a, keys_b = lsh.band_keys(sets_a), lsh.band_keys(sets_b)
        with timed(timings, "match"):
            cand_a, cand_b = self._candidates(keys_a, keys_b)
            distances = np.fromiter(
                (
                    jaccard_distance_sets(sets_a[i], sets_b[j])
                    for i, j in zip(cand_a.tolist(), cand_b.tolist())
                ),
                dtype=np.float64,
                count=int(cand_a.size),
            )
            keep = distances <= self.threshold
        return LinkageResult(
            rows_a=cand_a[keep],
            rows_b=cand_b[keep],
            n_candidates=int(cand_a.size),
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            record_distances=distances[keep],
            counters={"pairs_verified": float(cand_a.size)},
        )
