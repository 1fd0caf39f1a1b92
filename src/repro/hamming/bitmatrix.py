"""Packed bit matrices: a whole dataset of Hamming-space embeddings.

The LSH blocking step hashes every record of both datasets, and the
matching step computes Hamming distances for every candidate pair.  Doing
this one Python object at a time is too slow at realistic dataset sizes, so
a :class:`BitMatrix` stores ``n`` vectors of width ``n_bits`` as a
``(n, ceil(n_bits / 64))`` array of little-endian ``uint64`` words and
offers vectorised column extraction (for LSH base hash functions); the
Hamming distances of :mod:`repro.hamming.distance` run over its ``words``.
A single vector is a one-row matrix.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

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

