"""Hamming distance helpers.

The Hamming distance between two binary sequences is the number of
positions in which they differ; it is the metric ``d_H`` on the embedding
spaces H and H-hat throughout the paper.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import lru_cache

import numpy as np

#: Rows per cache block of the blocked gather / XOR / popcount / scatter
#: kernels: a block of a few packed words stays near 1 MB, so it is reused
#: from the allocator instead of being mapped and page-faulted per call.
DEFAULT_BLOCK_ROWS = 1 << 15


def hamming_packed(words_a: np.ndarray, words_b: np.ndarray) -> np.ndarray:
    """Row-wise Hamming distance between two packed ``uint64`` arrays.

    Both arguments must have the same shape ``(n, n_words)``; broadcasting a
    single row against many is allowed (shape ``(n_words,)`` vs
    ``(n, n_words)``).
    """
    xor = np.asarray(words_a, dtype=np.uint64) ^ np.asarray(words_b, dtype=np.uint64)
    return np.bitwise_count(xor).sum(axis=-1).astype(np.int64)


def decode_pairs(encoded: np.ndarray, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows_a, rows_b)`` of encoded pairs ``a * n_b + b``."""
    return np.divmod(encoded, n_b)


_NO_ROWS = np.empty(0, dtype=np.int64)


@lru_cache(maxsize=8)
def _word_ones(n_words: int) -> np.ndarray:
    """A read-only ``int64`` ones vector: row popcounts summed by one ``dot``,
    a third of an axis reduction's fixed cost."""
    ones = np.ones(n_words, dtype=np.int64)
    ones.flags.writeable = False
    return ones


def verify_pairs(
    words_a: np.ndarray,
    words_b: np.ndarray,
    pairs: tuple[np.ndarray, "np.ndarray | int | np.integer"],
    threshold: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows_a, rows_b, distances)`` of the candidate pairs with ``d_H <= threshold``.

    ``pairs`` is ``(rows_a, rows_b)`` or, still encoded, ``(a * n_b + b,
    n_b)`` with ``n_b`` any integer scalar; it is decoded, gathered, XORed,
    popcounted and filtered ``DEFAULT_BLOCK_ROWS`` pairs at a time, so no
    temporary is the size of ``pairs``, and the accepted pairs keep their
    input order.
    """
    first, second = pairs
    encoded = isinstance(second, (int, np.integer))
    ones = _word_ones(words_a.shape[1])
    kept = []
    for lo in range(0, first.size, DEFAULT_BLOCK_ROWS):
        block = first[lo : lo + DEFAULT_BLOCK_ROWS]
        if encoded:
            rows_a, rows_b = np.divmod(block, second)
        else:
            rows_a, rows_b = block, second[lo : lo + DEFAULT_BLOCK_ROWS]
        xor = words_a.take(rows_a, 0)
        xor ^= words_b.take(rows_b, 0)
        dist = np.bitwise_count(xor).dot(ones)
        keep = (dist <= threshold).nonzero()[0]
        kept.append((rows_a[keep], rows_b[keep], dist[keep]))
    if len(kept) == 1:  # one block: nothing to concatenate
        return kept[0]
    out_a, out_b, dist = (np.concatenate(column) for column in zip((_NO_ROWS,) * 3, *kept))
    return out_a, out_b, dist


def verify_attribute_pairs(
    pairs: tuple[np.ndarray, np.ndarray],
    distances: Callable[[np.ndarray, np.ndarray], dict[str, np.ndarray]],
    thresholds: Mapping[str, float],
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """``(rows_a, rows_b, distances)`` of the candidate pairs within every threshold.

    The matching step of BfH and SM-EB: ``distances(rows_a, rows_b)``
    measures every attribute over the pairs (it is not called when there
    are none); the attributes in ``thresholds`` decide acceptance, the
    others are only reported.
    """
    rows_a, rows_b = pairs
    if not rows_a.size:
        return rows_a, rows_b, {}
    measured = distances(rows_a, rows_b)
    accepted = np.ones(rows_a.size, dtype=bool)
    for attribute, threshold in thresholds.items():
        accepted &= measured[attribute] <= threshold
    return rows_a[accepted], rows_b[accepted], {name: d[accepted] for name, d in measured.items()}


def masked_hamming_rows(
    words_a: np.ndarray,
    rows_a: np.ndarray,
    words_b: np.ndarray,
    rows_b: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Hamming distance restricted to bit positions ``[start, stop)``.

    Operates on packed ``uint64`` word arrays of two matrices and parallel
    row-index arrays: XOR the touched words, mask the partial words at the
    range boundaries, popcount.  This is how attribute-level distances are
    read out of concatenated record-level vectors.
    """
    if not 0 <= start < stop:
        raise ValueError(f"invalid bit range [{start}, {stop})")
    packed_bits = 64 * int(min(words_a.shape[-1], words_b.shape[-1]))
    if stop > packed_bits:
        raise ValueError(
            f"bit range [{start}, {stop}) exceeds the packed width "
            f"({packed_bits} bits)"
        )
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if rows_a.shape != rows_b.shape:
        raise ValueError(
            f"rows_a and rows_b must be parallel arrays, got "
            f"{rows_a.shape} vs {rows_b.shape}"
        )
    w_lo, o_lo = divmod(start, 64)
    w_hi, o_hi = divmod(stop, 64)
    last_word = w_hi if o_hi else w_hi - 1
    cols = slice(w_lo, last_word + 1)
    out = np.empty(rows_a.size, dtype=np.int64)
    # Cache-sized row blocks: the gathered XOR block of a million candidate
    # pairs is tens of MB, freshly mapped and page-faulted on every call.
    for lo in range(0, rows_a.size, DEFAULT_BLOCK_ROWS):
        hi = lo + DEFAULT_BLOCK_ROWS
        xor = words_a[rows_a[lo:hi], cols] ^ words_b[rows_b[lo:hi], cols]
        if o_lo:
            xor[:, 0] &= ~np.uint64((1 << o_lo) - 1)
        if o_hi and last_word == w_hi:
            xor[:, -1] &= np.uint64((1 << o_hi) - 1)
        out[lo:hi] = np.bitwise_count(xor).sum(axis=1)
    return out


def jaccard_distance_rows(
    words_a: np.ndarray,
    rows_a: "np.ndarray | Sequence[int] | int",
    words_b: np.ndarray,
    rows_b: "np.ndarray | Sequence[int] | int",
) -> np.ndarray:
    """Jaccard distances of the index sets held as bit rows ``words_a[rows_a[i]]``
    and ``words_b[rows_b[i]]`` (either side may be one row index, paired with
    every row of the other): popcounts of AND and OR, ``DEFAULT_BLOCK_ROWS``
    pairs at a time, each the float :func:`jaccard_distance_sets` gives."""
    rows_a, rows_b = np.asarray(rows_a), np.asarray(rows_b)
    ones = _word_ones(words_a.shape[1])
    out = np.empty(max(rows_a.size, rows_b.size), dtype=np.float64)
    for lo in range(0, out.size, DEFAULT_BLOCK_ROWS):
        hi = lo + DEFAULT_BLOCK_ROWS
        a = words_a.take(rows_a if rows_a.ndim == 0 else rows_a[lo:hi], 0)
        b = words_b.take(rows_b if rows_b.ndim == 0 else rows_b[lo:hi], 0)
        union = np.bitwise_count(a | b).dot(ones)
        inter = np.bitwise_count(a & b).dot(ones)
        out[lo:hi] = np.where(union > 0, 1.0 - inter / np.maximum(union, 1), 0.0)
    return out


def jaccard_distance_sets(set_a: frozenset | set, set_b: frozenset | set) -> float:
    """Jaccard distance ``1 - |A ∩ B| / |A ∪ B|`` between two index sets.

    Used by Section 5.1's comparison against the Jaccard space J (the space
    of q-gram index sets ``U_s``), and the scalar reference of
    :func:`jaccard_distance_rows`.  The distance between two empty sets is
    defined as 0.
    """
    if not set_a and not set_b:
        return 0.0
    inter = len(set_a & set_b)
    union = len(set_a | set_b)
    return 1.0 - inter / union
