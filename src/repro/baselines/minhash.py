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

Records are packed bigram vectors (:func:`bigram_matrix`); a signature
reads each row's set bits, looks every hash up in a table over the q-gram
space and takes one ``numpy.minimum.reduceat`` per hash.  A band's ``K``
slots are its blocking key; :meth:`MinHashLSH.band_keys` also hashes them
to one ``uint64`` per band and row, the key array of the sort-merge join
every LSH blocker shares (:func:`repro.hamming.lsh.join_keys`, which drops
pairs whose slots differ, so a hash collision formulates no pair).

Besides the raw machinery this module provides :class:`MinHashLinker` —
a *non-iterative* MinHash LSH linker that runs all bands to completion in
one join, the ablation partner of HARRA's early-pruning h-CC.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.cvector import HASH_PRIME, embed_columns, record_errors
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import decode_pairs, jaccard_distance_rows
from repro.hamming.lsh import hash_keys, join_keys, sorted_unique
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET

#: Bytes of the bit-per-byte sheet :meth:`MinHasher.signatures` unpacks at a time.
_UNPACK_BYTES = 1 << 22


@dataclass(frozen=True)
class _QGramVector:
    """Section 4.1's q-gram vector as a column encoder: q-gram id ``x`` is bit ``x``."""

    scheme: QGramScheme

    def gram_bits(self, ids: np.ndarray) -> np.ndarray:
        return ids[:, None]


def bigram_matrix(rows: Sequence[Sequence[str]], scheme: QGramScheme) -> BitMatrix:
    """HARRA's record-level bigram vectors: every attribute's q-gram ids ORed
    into one ``|S|^q``-bit row (identical bigrams of two attributes share a
    bit).  Records take the first one's arity; attributes are ``f1, f2, ...``."""
    arity = len(rows[0]) if len(rows) else 1
    encoders = [_QGramVector(scheme)] * arity
    with record_errors(rows, [f"f{i + 1}" for i in range(arity)], encoders):
        columns = [[row[att] for row in rows] for att in range(arity)]
        return embed_columns(encoders, [0] * arity, columns, scheme.space_size)[0]


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

    def signatures(self, matrix: BitMatrix) -> np.ndarray:
        """:meth:`signature` of each row's set bits (shape ``(n_rows, n_hashes)``),
        a few MB of unpacked rows at a time, each hash tabulated over the
        ``n_bits`` elements.  Empty rows get the sentinel ``p`` in every slot,
        which never collides with a non-empty set's minimum (< p)."""
        space = np.arange(matrix.n_bits, dtype=np.int64)
        output = np.full((matrix.n_rows, self.n_hashes), self.p, dtype=np.int64)
        words = np.ascontiguousarray(matrix.words, dtype="<u8")
        step = _UNPACK_BYTES // (64 * words.shape[1]) + 1
        for lo in range(0, matrix.n_rows, step):
            sheet = np.unpackbits(words[lo : lo + step].view(np.uint8), axis=1, bitorder="little")
            rows, elements = sheet.nonzero()
            starts = np.flatnonzero(np.diff(rows, prepend=-1))  # each non-empty row's first bit
            non_empty = rows[starts] + lo
            for h in range(self.n_hashes):
                table = (self._a[h] * space + self._b[h]) % self.p
                table[table >= self._cutoff] = self.p
                output[non_empty, h] = np.minimum.reduceat(table.take(elements), starts)
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

    def band_keys(self, matrix: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
        """The bands of the sets ``matrix``'s rows hold, as the blocking keys
        :func:`~repro.hamming.lsh.join_keys` takes: the ``(L, n, K)``
        signature slots of each band and row, and their ``(L, n)`` hashes."""
        signatures = self.hasher.signatures(matrix)
        bands = signatures.reshape(matrix.n_rows, self.n_tables, self.k).transpose(1, 0, 2)
        return bands, hash_keys(bands)


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

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> index -> all-band candidates -> Jaccard verify."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            bits_a, bits_b = (bigram_matrix(rows, self.scheme) for rows in (rows_a, rows_b))
        with timed(timings, "index"):
            lsh = MinHashLSH(self.k, self.n_tables, self.seed, self.prefix_fraction)
            (bands_a, keys_a), (bands_b, keys_b) = lsh.band_keys(bits_a), lsh.band_keys(bits_b)
        with timed(timings, "match"):
            # Every band in one join; a pair formulated by several bands once.
            pairs = sorted_unique(join_keys(keys_a, keys_b, bands_a, bands_b))
            cand_a, cand_b = decode_pairs(pairs, len(rows_b))
            distances = jaccard_distance_rows(bits_a.words, cand_a, bits_b.words, cand_b)
            keep = distances <= self.threshold
        return LinkageResult(
            rows_a=cand_a[keep],
            rows_b=cand_b[keep],
            n_candidates=int(cand_a.size),
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            record_distances=distances[keep],
            counters={"pairs_verified": float(cand_a.size), "n_tables": float(lsh.n_tables)},
        )
