"""Compact q-gram vectors — c-vectors (Section 5.2).

A c-vector re-embeds a string from the full q-gram space ``H`` (width
``|S|^q``) into a compact space ``H-hat`` of ``m_opt`` positions by hashing
every index in ``U_s`` with a randomly chosen pairwise-independent hash

    g(x) = ((a*x + b) mod P) mod m,      P = 2^31 - 1,  a, b in (0, P)

(one ``g`` per attribute, shared by all strings of that attribute so
distances remain comparable).  ``m_opt`` comes from Theorem 1 — see
:mod:`repro.core.sizing`.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.qgram import QGramScheme, batch_qgram_indices
from repro.core.sizing import DEFAULT_CONFIDENCE_R, DEFAULT_RHO, optimal_cvector_size
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.bitvector import BitVector

#: The large prime of the paper's hash family: 2^31 - 1 (a Mersenne prime).
HASH_PRIME = 2**31 - 1

#: Per-encoder LRU capacity for memoised compact index sets (streaming path).
COMPACT_CACHE_SIZE = 4096

#: Distinct values tokenised, hashed and packed per pass of
#: :func:`embed_columns`.  Sized to keep every temporary near 1 MB, which
#: the allocator recycles; whole-column temporaries (10+ MB at 100 000
#: records) are mapped and page-faulted afresh on every call, the least
#: steady cost an embed can have.
VALUE_BLOCK = 1 << 13


@dataclass(frozen=True)
class InternedColumn:
    """One attribute column, interned: every *unique* value tokenised once.

    ``inverse[i]`` is the unique-value id of record ``i`` (ids follow
    first occurrence), ``counts[u]`` the q-gram count of unique value
    ``u`` and ``flat_indices`` the q-gram indices of the unique values,
    value by value (occurrence order, repeats kept — the bit scatter is
    idempotent).  The per-(record, emitted bit) expansion is derived on
    demand: ``rows[i]`` is the record bit ``i`` belongs to, ``gather[i]``
    its position in ``flat_indices``.
    """

    inverse: np.ndarray
    counts: np.ndarray
    flat_indices: np.ndarray

    @property
    def n_values(self) -> int:
        return int(self.inverse.size)

    @property
    def n_unique(self) -> int:
        return int(self.counts.size)

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_values, dtype=np.int64), self.counts[self.inverse])

    @property
    def gather(self) -> np.ndarray:
        rec_counts = self.counts[self.inverse]
        starts = (np.cumsum(self.counts) - self.counts)[self.inverse]
        ends = np.cumsum(rec_counts)
        return np.arange(int(rec_counts.sum()), dtype=np.int64) + np.repeat(
            starts + rec_counts - ends, rec_counts
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of values served from the interning table."""
        if self.n_values == 0:
            return 0.0
        return 1.0 - self.n_unique / self.n_values


def _number_values(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in first-occurrence order, and every record's value id."""
    ids = {value: uid for uid, value in enumerate(dict.fromkeys(values))}
    inverse = np.fromiter(map(ids.__getitem__, values), dtype=np.int64, count=len(values))
    return list(ids), inverse


def _tokenise(values: list[str], scheme: QGramScheme) -> tuple[np.ndarray, np.ndarray]:
    """``(flat q-gram indices, per-value counts)`` of ``values`` under ``scheme``."""
    return batch_qgram_indices(values, scheme.q, scheme.alphabet, scheme.padded, scheme.pad_char)


def intern_column(values: Sequence[str], scheme: QGramScheme) -> InternedColumn:
    """Intern an attribute column: number its distinct values, tokenise each once
    (one vectorised pass over the unique values, in first-occurrence order)."""
    unique, inverse = _number_values(values)
    flat, counts = _tokenise(unique, scheme)
    return InternedColumn(inverse=inverse, counts=counts, flat_indices=flat)


@dataclass(frozen=True)
class UniversalHash:
    """A pairwise-independent hash ``g(x) = ((a*x + b) mod P) mod m``."""

    a: int
    b: int
    m: int
    p: int = HASH_PRIME

    def __post_init__(self) -> None:
        if not 0 < self.a < self.p:
            raise ValueError(f"a must be in (0, P), got {self.a}")
        if not 0 < self.b < self.p:
            raise ValueError(f"b must be in (0, P), got {self.b}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    def __call__(self, x: int) -> int:
        return ((self.a * x + self.b) % self.p) % self.m

    def apply(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an integer array."""
        out = np.asarray(xs, dtype=np.int64) * self.a
        out += self.b
        out %= self.p
        out %= self.m
        return out

    @classmethod
    def random(cls, m: int, rng: np.random.Generator, p: int = HASH_PRIME) -> "UniversalHash":
        """Draw ``a, b`` uniformly from ``(0, P)``."""
        a = int(rng.integers(1, p))
        b = int(rng.integers(1, p))
        return cls(a=a, b=b, m=m, p=p)


class CVectorEncoder:
    """Attribute-level encoder from strings to c-vectors in ``{0,1}^m``.

    Parameters
    ----------
    m:
        Width of the compact space for this attribute (``m_opt^(f_i)``).
    scheme:
        The q-gram extraction scheme (q, alphabet, padding).
    hash_fn:
        The attribute's universal hash ``g``; drawn randomly when omitted.
    seed:
        Seed for drawing ``g`` when ``hash_fn`` is omitted.
    """

    def __init__(
        self,
        m: int,
        scheme: QGramScheme | None = None,
        hash_fn: UniversalHash | None = None,
        seed: int | None = None,
    ):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.scheme = scheme or QGramScheme()
        if hash_fn is None:
            hash_fn = UniversalHash.random(m, np.random.default_rng(seed))
        elif hash_fn.m != m:
            raise ValueError(f"hash modulus {hash_fn.m} differs from m={m}")
        self.hash_fn = hash_fn
        self._compact_cache: OrderedDict[str, frozenset[int]] = OrderedDict()

    # -- per-string API -------------------------------------------------------

    def compact_indices(self, value: str) -> frozenset[int]:
        """The set of compact positions ``{g(x) : x in U_s}`` for ``value``.

        Memoised per encoder (bounded LRU) so the streaming insert/query
        path pays the hash evaluation once per distinct value.
        """
        cached = self._compact_cache.get(value)
        if cached is not None:
            self._compact_cache.move_to_end(value)
            return cached
        u_s = self.scheme.index_set(value)
        out = frozenset(self.hash_fn(x) for x in u_s)
        self._compact_cache[value] = out
        if len(self._compact_cache) > COMPACT_CACHE_SIZE:
            self._compact_cache.popitem(last=False)
        return out

    def encode(self, value: str) -> BitVector:
        """The c-vector of ``value`` (Figure 4 of the paper)."""
        return BitVector.from_indices(self.m, self.compact_indices(value))

    def collisions(self, value: str) -> int:
        """Observed collision count for ``value``: ``|U_s| - |g(U_s)|``."""
        u_s = self.scheme.index_set(value)
        return len(u_s) - len({self.hash_fn(x) for x in u_s})

    # -- dataset API --------------------------------------------------------------

    def encode_all(self, values: Sequence[str]) -> BitMatrix:
        """Encode a whole attribute column into one packed :class:`BitMatrix`."""
        if not values:
            raise ValueError("values must be non-empty")
        return embed_columns([self], [0], [values], self.m)[0]

    # -- calibration ---------------------------------------------------------------

    @classmethod
    def calibrated(
        cls,
        sample: Iterable[str],
        scheme: QGramScheme | None = None,
        rho: float = DEFAULT_RHO,
        r: float = DEFAULT_CONFIDENCE_R,
        seed: int | None = None,
    ) -> "CVectorEncoder":
        """Size the compact space from a data sample via Theorem 1.

        ``b^(f_i)`` is measured as the average q-gram count over the sample
        (the paper's Charlie samples strings "randomly and uniformly" to
        compute it), then ``m_opt`` follows from Theorem 1.
        """
        scheme = scheme or QGramScheme()
        counts = [scheme.count(value) for value in sample]
        if not counts:
            raise ValueError("calibration sample must be non-empty")
        b = sum(counts) / len(counts)
        if b <= 0:
            raise ValueError("calibration sample produced no q-grams")
        m_opt = optimal_cvector_size(b, rho, r)
        encoder = cls(m_opt, scheme=scheme, seed=seed)
        encoder.b = b  # type: ignore[attr-defined]  # diagnostic: measured b^(f_i)
        return encoder

    def __repr__(self) -> str:
        return f"CVectorEncoder(m={self.m}, q={self.scheme.q}, padded={self.scheme.padded})"


def embed_columns(
    encoders: Sequence[CVectorEncoder],
    offsets: Sequence[int],
    columns: Sequence[Sequence[str]],
    n_bits: int,
) -> tuple[BitMatrix, int]:
    """Embed parallel attribute columns into one ``n_bits``-wide matrix.

    Value-granular: every *distinct* value of every column is tokenised,
    hashed and packed once into a matrix-wide word row with its bits
    shifted by the column's bit offset, ``VALUE_BLOCK`` values at a
    time; each record then ORs together the rows of its values — one row
    gather per column.  Returns the matrix and the number of distinct
    values embedded.
    """
    numbered = [_number_values(values) for values in columns]
    blocks = [
        (enc, offset, unique[lo : lo + VALUE_BLOCK])
        for enc, offset, (unique, __) in zip(encoders, offsets, numbered)
        for lo in range(0, len(unique), VALUE_BLOCK)
    ]
    n_unique = sum(len(unique) for unique, __ in numbered)
    packed = np.empty((n_unique, (n_bits + 63) // 64), dtype=np.uint64)
    counts: list[np.ndarray] = []
    bits: list[np.ndarray] = []
    done = 0
    for i, (enc, offset, block) in enumerate(blocks):
        flat, block_counts = _tokenise(block, enc.scheme)
        hashed = enc.hash_fn.apply(flat)
        hashed += offset
        counts.append(block_counts)
        bits.append(hashed)
        pending = sum(map(len, counts))
        if pending >= VALUE_BLOCK or i == len(blocks) - 1:  # small columns share a scatter
            rows = np.repeat(np.arange(pending), np.concatenate(counts))
            packed[done : done + pending] = scatter_bits(
                pending, n_bits, rows, np.concatenate(bits)
            ).words
            counts, bits, done = [], [], done + pending
    words = packed[numbered[0][1]]
    base = len(numbered[0][0])
    for unique, inverse in numbered[1:]:
        words |= packed[base + inverse]
        base += len(unique)
    return BitMatrix(words, n_bits), n_unique
