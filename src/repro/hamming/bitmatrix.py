"""Packed bit matrices: a whole dataset of Hamming-space embeddings.

The LSH blocking step hashes every record of both datasets, and the
matching step computes Hamming distances for every candidate pair.  Doing
this one Python object at a time is too slow at realistic dataset sizes, so
a :class:`BitMatrix` stores ``n`` vectors of width ``n_bits`` as a
``(n, ceil(n_bits / 64))`` array of little-endian ``uint64`` words and
offers vectorised column extraction (for LSH base hash functions) and
vectorised Hamming distances (via ``numpy.bitwise_count``).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.hamming.bitvector import BitVector
from repro.hamming.distance import DEFAULT_BLOCK_ROWS


class BitMatrix:
    """``n`` fixed-width bit vectors packed into ``uint64`` words.

    Row ``i`` is record ``i``'s embedding; bit ``j`` of a row lives in word
    ``j // 64`` at in-word offset ``j % 64``.
    """

    __slots__ = ("_words", "_n_bits")

    def __init__(self, words: np.ndarray, n_bits: int):
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        expected = (n_bits + 63) // 64
        if words.shape[1] != expected:
            raise ValueError(
                f"width mismatch: {n_bits} bits needs {expected} words, got {words.shape[1]}"
            )
        if n_bits <= 0:
            raise ValueError(f"n_bits must be positive, got {n_bits}")
        self._words = words
        self._n_bits = n_bits

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, n_rows: int, n_bits: int) -> "BitMatrix":
        n_words = (n_bits + 63) // 64
        return cls(np.zeros((n_rows, n_words), dtype=np.uint64), n_bits)

    @classmethod
    def from_vectors(cls, vectors: Sequence[BitVector]) -> "BitMatrix":
        """Stack :class:`BitVector` rows (all must share one width)."""
        if not vectors:
            raise ValueError("vectors must be non-empty")
        n_bits = vectors[0].n_bits
        n_words = (n_bits + 63) // 64
        words = np.empty((len(vectors), n_words), dtype=np.uint64)
        for i, vec in enumerate(vectors):
            if vec.n_bits != n_bits:
                raise ValueError(f"row {i} has width {vec.n_bits}, expected {n_bits}")
            words[i] = vec.to_packed()
        return cls(words, n_bits)

    @classmethod
    def from_index_sets(cls, index_sets: Iterable[Iterable[int]], n_bits: int) -> "BitMatrix":
        """Build from per-row iterables of set-bit positions."""
        rows = [BitVector.from_indices(n_bits, idx) for idx in index_sets]
        if not rows:
            raise ValueError("index_sets must be non-empty")
        return cls.from_vectors(rows)

    # -- accessors --------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self._words.shape[0]

    @property
    def n_bits(self) -> int:
        return self._n_bits

    @property
    def words(self) -> np.ndarray:
        """The underlying packed array (do not mutate)."""
        return self._words

    def __len__(self) -> int:
        return self.n_rows

    def row(self, i: int) -> BitVector:
        """Row ``i`` as a :class:`BitVector`."""
        return BitVector.from_packed(self._words[i], self._n_bits)

    def get_bit(self, row: int, bit: int) -> int:
        if not 0 <= bit < self._n_bits:
            raise IndexError(f"bit {bit} out of range for width {self._n_bits}")
        word, offset = divmod(bit, 64)
        return int((self._words[row, word] >> np.uint64(offset)) & np.uint64(1))

    def set_bit(self, row: int, bit: int) -> None:
        if not 0 <= bit < self._n_bits:
            raise IndexError(f"bit {bit} out of range for width {self._n_bits}")
        word, offset = divmod(bit, 64)
        self._words[row, word] |= np.uint64(1) << np.uint64(offset)

    # -- vectorised operations ----------------------------------------------------

    def columns(self, bits: Sequence[int]) -> np.ndarray:
        """Extract bit columns for all rows: shape ``(n_rows, len(bits))``.

        This is the core of an LSH composite hash function ``h_l``: each
        base hash function reads one uniformly chosen bit position, so
        ``columns(sampled_bits)`` yields every record's blocking key at once.
        """
        bits_arr = np.asarray(bits, dtype=np.int64)
        if bits_arr.size and (bits_arr.min() < 0 or bits_arr.max() >= self._n_bits):
            raise IndexError(f"bit positions out of range for width {self._n_bits}")
        word_idx = bits_arr // 64
        offsets = (bits_arr % 64).astype(np.uint64)
        # (n_rows, K) gather then shift+mask per column.
        gathered = self._words[:, word_idx]
        return ((gathered >> offsets) & np.uint64(1)).astype(np.uint8)

    def hamming_to(self, vector: BitVector) -> np.ndarray:
        """Hamming distance from every row to ``vector`` (shape ``(n_rows,)``)."""
        if vector.n_bits != self._n_bits:
            raise ValueError(f"width mismatch: {vector.n_bits} vs {self._n_bits}")
        xor = self._words ^ vector.to_packed()[None, :]
        return np.bitwise_count(xor).sum(axis=1).astype(np.int64)

    def hamming_rows(self, rows_a: np.ndarray, other: "BitMatrix", rows_b: np.ndarray) -> np.ndarray:
        """Pairwise distances ``d(self[rows_a[i]], other[rows_b[i]])``.

        ``rows_a`` and ``rows_b`` are parallel index arrays; this evaluates
        an entire batch of candidate pairs in one vectorised sweep.
        """
        if other._n_bits != self._n_bits:
            raise ValueError(f"width mismatch: {self._n_bits} vs {other._n_bits}")
        xor = self._words[rows_a] ^ other._words[rows_b]
        return np.bitwise_count(xor).sum(axis=1).astype(np.int64)

    def popcounts(self) -> np.ndarray:
        """Hamming weight of every row."""
        return np.bitwise_count(self._words).sum(axis=1).astype(np.int64)

    def concat(self, other: "BitMatrix") -> "BitMatrix":
        """Column-wise concatenation (record-level vectors from attribute-level).

        ``self`` keeps the low bit positions; ``other`` is appended after
        position ``self.n_bits - 1``.  Implemented row-by-row via the
        integer representation, which is exact for any widths (including
        non-word-aligned boundaries).
        """
        if other.n_rows != self.n_rows:
            raise ValueError(f"row count mismatch: {self.n_rows} vs {other.n_rows}")
        rows = [self.row(i).concat(other.row(i)) for i in range(self.n_rows)]
        return BitMatrix.from_vectors(rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._n_bits == other._n_bits and np.array_equal(self._words, other._words)

    def __repr__(self) -> str:
        return f"BitMatrix(n_rows={self.n_rows}, n_bits={self._n_bits})"


def scatter_bits(n_rows: int, n_bits: int, rows: np.ndarray, bits: np.ndarray) -> BitMatrix:
    """Build a matrix by setting ``(rows[i], bits[i])`` positions to 1.

    Fully vectorised: positions are marked in a dense byte-per-bit sheet
    that ``np.packbits`` folds into words, ``DEFAULT_BLOCK_ROWS`` rows at
    a time so the sheet stays small.  Duplicate positions are idempotent,
    matching q-gram-set semantics.
    """
    rows = np.asarray(rows, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    if rows.shape != bits.shape:
        raise ValueError(f"rows and bits must be parallel arrays, got {rows.shape} vs {bits.shape}")
    if bits.size and (bits.min() < 0 or bits.max() >= n_bits):
        raise IndexError(f"bit positions out of range for width {n_bits}")
    if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
        raise IndexError(f"row indices out of range for {n_rows} rows")
    n_words = (n_bits + 63) // 64
    width = n_words * 64
    flat = rows * width
    flat += bits
    starts = range(0, n_rows, DEFAULT_BLOCK_ROWS)
    cuts = [0, flat.size]
    if len(starts) > 1:  # split the positions by row block
        if (rows[1:] < rows[:-1]).any():
            flat = flat[np.argsort(rows, kind="stable")]
        edges = np.arange(len(starts) + 1) * (DEFAULT_BLOCK_ROWS * width)
        cuts = np.searchsorted(flat, edges).tolist()
    words = np.empty((n_rows, n_words), dtype=np.uint64)
    for i, lo in enumerate(starts):
        hi = min(lo + DEFAULT_BLOCK_ROWS, n_rows)
        sheet = np.zeros((hi - lo) * width, dtype=np.uint8)
        sheet[flat[cuts[i] : cuts[i + 1]] - lo * width] = 1
        words[lo:hi] = np.packbits(sheet, bitorder="little").view("<u8").reshape(hi - lo, n_words)
    return BitMatrix(words, n_bits)


def concat_matrices(parts: Sequence[BitMatrix]) -> BitMatrix:
    """Concatenate attribute-level matrices into a record-level matrix.

    Uses word-level shifts when every part except the last is 64-bit
    aligned would be an optimisation; for generality and correctness the
    integer path of :meth:`BitMatrix.concat` is used, part by part.
    """
    if not parts:
        raise ValueError("parts must be non-empty")
    out = parts[0]
    for part in parts[1:]:
        out = out.concat(part)
    return out
