"""Batched threshold / top-k queries against an indexed :class:`HammingLSH`.

The real-time setting of Section 1 indexes a reference dataset once and
matches query streams against it continuously.  This module is the one
query front end: a block of query vectors (one row for a one-record
query) runs through the one threshold-match kernel (:meth:`HammingLSH.match`:
the sort-merge candidate join, in-place de-dup, blocked ``bitwise_count``
verify) and is grouped back per query with one sort — no per-query Python
loop anywhere.

The one online object, :class:`repro.serve.QueryEngine`, queries one
:class:`IndexView` (an LSH over a growable word store, held by
:class:`repro.core.shards.ShardedIndex`) through it, whether the index
was loaded from a bundle or is growing in memory; a one-record query is
a one-row batch.

Top-k selection is one stable sort by ``(query, distance)`` of the
kernel's id-ordered matches, so ties at the cut-off are broken
deterministically by the smaller record id — byte-identical results for
every batch size.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH

_EMPTY = np.empty(0, dtype=np.int64)


def batch_query(
    lsh: HammingLSH,
    words_a: np.ndarray,
    matrix_b: BitMatrix,
    threshold: int,
    top_k: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Match every row of ``matrix_b`` against the indexed dataset at once.

    ``words_a`` is the packed ``uint64`` word array of the indexed
    matrix (it may be a read-only memory map — only the candidate rows
    are ever gathered).  Returns parallel ``(query, id, distance)``
    arrays grouped by query index: threshold mode orders each query's
    matches by record id, ``top_k`` mode keeps at most ``top_k`` per
    query ordered by ``(distance, id)``.

    The pipeline is Algorithm 2 dataset-at-a-time: the match kernel
    (:meth:`HammingLSH.match`), then one grouping sort.  A batch of one row
    is the one-record query, so every batch size gives each query the same
    list.  The caller has checked ``threshold >= 0`` and ``top_k >= 1``
    (:meth:`repro.serve.QueryEngine.query_batch`, for every batch size).
    """
    ids, queries, distances = lsh.match(words_a, matrix_b, threshold)
    if ids.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    # The kernel's pairs are in (id, query) order, so a stable sort by query
    # (and distance) leaves each group in id order.
    if top_k is None:
        order = queries.argsort(kind="stable")
        return queries[order], ids[order], distances[order]
    # Group by (query, distance, id), then keep the first top_k of every
    # query: an entry's rank is its offset from its query's first entry.
    key = queries * (lsh.n_bits + 1)
    key += distances
    order = key.argsort(kind="stable")
    ranked = queries[order]
    order = order[np.arange(ranked.size) - ranked.searchsorted(ranked) < top_k]
    return queries[order], ids[order], distances[order]


class IndexView:
    """Every record as one index: ``lsh`` over ``words``, ids = row numbers.

    What a query batch runs against — one probe, one join, one verify.  The
    word store grows by amortised doubling (:func:`with_room`; a memory-mapped
    store is copied at the first append, never written to).
    """

    def __init__(self, lsh: HammingLSH, words: np.ndarray):
        self.lsh = lsh
        self._store = words
        self.count = int(words.shape[0])

    @property
    def words(self) -> np.ndarray:
        """The packed rows; row ``i`` is id ``i``."""
        return self._store[: self.count]

    def append(self, words: np.ndarray) -> np.ndarray:
        """Add rows as the next ids, one streaming insert; returns the ids."""
        stop = self.count + int(words.shape[0])
        ids = np.arange(self.count, stop, dtype=np.int64)
        self._store = with_room(self._store, self.count, stop)
        self._store[self.count : stop] = words
        self.lsh.insert_rows(BitMatrix(self._store[self.count : stop], self.lsh.n_bits), ids)
        self.count = stop
        return ids


def with_room(store: np.ndarray, count: int, stop: int) -> np.ndarray:
    """``store`` if it holds ``stop`` rows, else an amortised-doubling copy.

    Only the first ``count`` rows are carried over; a (read-only,
    memory-mapped) payload is full, so it is copied at the first append and
    never written to.
    """
    if stop <= len(store):
        return store
    capacity = max(16, stop, 2 * len(store))
    grown = np.empty((capacity, *store.shape[1:]), dtype=store.dtype)
    grown[:count] = store[:count]
    return grown


def group_matches(
    queries: np.ndarray, ids: np.ndarray, distances: np.ndarray, n_queries: int
) -> list[list[tuple[int, int]]]:
    """Per-query ``(id, distance)`` lists from grouped batch-query arrays.

    Each array is read once, as a Python list: iterating a numpy array
    boxes one scalar per element, which costs twice the whole loop.
    """
    out: list[list[tuple[int, int]]] = [[] for __ in range(n_queries)]
    for query, rid, dist in zip(queries.tolist(), ids.tolist(), distances.tolist()):
        out[query].append((rid, dist))
    return out
