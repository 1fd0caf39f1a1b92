"""Batched threshold / top-k queries against an indexed :class:`HammingLSH`.

The real-time setting of Section 1 indexes a reference dataset once and
matches query streams against it continuously.  Answering one query per
call leaves most of the work in Python bookkeeping; this module is the
shared *batch* front end: a whole block of query vectors runs through the
one threshold-match kernel (:meth:`HammingLSH.match`: the sort-merge
candidate join, in-place de-dup, blocked ``bitwise_count`` verify) and is
grouped back per query with one sort — no per-query Python loop anywhere.

Both front doors build on it: :class:`repro.serve.QueryEngine` (snapshot
serving) and :meth:`repro.core.linker.StreamingLinker.query_batch`.

Top-k selection is a partial sort (``numpy.argpartition``) over a
composite ``(distance, id)`` key, so ties at the cut-off are broken
deterministically by the smaller record id — byte-identical results for
every batch size.
"""

from __future__ import annotations

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH, run_starts

_EMPTY = np.empty(0, dtype=np.int64)


def top_k_smallest(distances: np.ndarray, ids: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest distances, ties broken by smaller id.

    Selection runs as a partial sort (``argpartition``) over the packed
    composite key ``distance * (max_id + 1) + id``, which makes the
    boundary deterministic: among equal distances the smaller record ids
    win.  The returned index array is ordered by ``(distance, id)``.
    """
    if k < 1:
        raise ValueError(f"top_k must be >= 1, got {k}")
    distances = np.asarray(distances, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if distances.shape != ids.shape:
        raise ValueError(
            f"distances and ids must be parallel arrays, got "
            f"{distances.shape} vs {ids.shape}"
        )
    if distances.size == 0:
        return _EMPTY
    base = int(ids.max()) + 1
    composite = distances * base + ids
    if distances.size <= k:
        return np.argsort(composite, kind="stable")
    selected = np.argpartition(composite, k - 1)[:k]
    return selected[np.argsort(composite[selected], kind="stable")]


def first_per_query(queries: np.ndarray, top_k: int) -> np.ndarray:
    """Mask keeping the first ``top_k`` entries of every run of equal ``queries``."""
    starts = run_starts(queries)
    counts = np.diff(starts, append=queries.size)
    return np.arange(queries.size) - np.repeat(starts, counts) < top_k


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
    (:meth:`HammingLSH.match`), then one grouping sort — identical output
    to looping ``lsh.query`` + verify per record, at a fraction of the
    overhead.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    ids, queries, distances = lsh.match(words_a, matrix_b, threshold)
    n_a = int(words_a.shape[0])
    if ids.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    if top_k is None:
        order = np.argsort(queries * n_a + ids, kind="stable")
        return queries[order], ids[order], distances[order]
    # Group by (query, distance, id) in one composite sort, then keep the
    # first top_k of every query segment via segment-relative ranks.
    composite = (queries * (lsh.n_bits + 1) + distances) * n_a + ids
    order = np.argsort(composite, kind="stable")
    queries, ids, distances = queries[order], ids[order], distances[order]
    head = first_per_query(queries, top_k)
    return queries[head], ids[head], distances[head]


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
