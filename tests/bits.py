"""Reading and building packed rows in tests.

A vector is a one-row :class:`BitMatrix`; these helpers read a row's bits
through ``columns`` or its words, and build small matrices with
``scatter_bits``.  The c-vector reference rows come from
:func:`repro.core.cvector.embed_values`, the value-by-value embed.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.cvector import embed_values
from repro.core.encoder import RecordEncoder
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.distance import hamming_packed


def set_bits(matrix: BitMatrix, i: int) -> list[int]:
    """The set bit positions of row ``i``, ascending."""
    return np.flatnonzero(matrix.columns(range(matrix.n_bits))[i]).tolist()


def row_int(row: np.ndarray) -> int:
    """One packed row (``matrix.words[i]``) as a Python integer: bit ``j`` is bit ``j``."""
    return int.from_bytes(np.asarray(row, dtype="<u8").tobytes(), "little")


def from_index_sets(index_sets: Iterable[Iterable[int]], n_bits: int) -> BitMatrix:
    """A matrix whose row ``i`` sets exactly the positions of ``index_sets[i]``."""
    sets = [list(index_set) for index_set in index_sets]
    rows = np.repeat(np.arange(len(sets)), [len(bits) for bits in sets])
    bits = np.asarray([bit for index_set in sets for bit in index_set], dtype=np.int64)
    return scatter_bits(len(sets), n_bits, rows, bits)


def from_bits(bits: Sequence[int]) -> BitMatrix:
    """A one-row matrix of the 0/1 sequence ``bits``."""
    positions = np.flatnonzero(np.asarray(bits))
    return scatter_bits(1, len(bits), np.zeros_like(positions), positions)


def reference_words(encoder: RecordEncoder, rows: Sequence[Sequence[str]]) -> np.ndarray:
    """The records' c-vectors, value by value through fresh memos."""
    offsets = [layout.offset for layout in encoder.layouts]
    memos: list[dict[str, int]] = [{} for __ in encoder.encoders]
    return embed_values(encoder.encoders, offsets, rows, encoder.total_bits, memos).words


def distance(matrix: BitMatrix) -> int:
    """The Hamming distance between the two rows of ``matrix``."""
    return int(hamming_packed(matrix.words[0], matrix.words[1]))
