"""Batched query serving over an index bundle (:class:`QueryEngine`).

The serving story for the paper's real-time setting: index the reference
dataset once, persist it, then answer batched threshold / top-k queries
against the attached bundle at high throughput.  There is one engine
over :class:`repro.core.shards.ShardedIndex`, and two on-disk layouts
behind it: a plain single-index bundle
(:func:`repro.core.persist.save_index_snapshot`) served read-only as one
shard, and an ``N``-shard bundle with durable online ingest.

A batch is embedded **once** and answered by **one**
:func:`repro.hamming.query.batch_query` against the index's query view
(``ShardedIndex.lsh`` over ``ShardedIndex.words``): every record of
every shard under its global id, so one probe, one join (bulk run plus
delta run) and one verify serve any shard count, and the result is
already in the single-index order — byte-identical for every layout,
with no per-shard scan and no merge.  Shards are where records are
persisted (WAL, compaction), not how they are queried.  Nothing fans
out to a worker pool: building one per call cost 8–64x the scan it
parallelised (see ``docs/serving.md``).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.config import DEFAULT_DELTA, DEFAULT_K
from repro.core.encoder import RecordEncoder
from repro.core.shards import ShardedIndex
from repro.hamming.query import batch_query, group_matches
from repro.perf import LogHistogram

_EMPTY = np.empty(0, dtype=np.int64)


def fold_counters(stats: dict[str, float], counters: dict[str, float]) -> None:
    """Add one batch's ``counters`` into ``stats``, key by key."""
    for key, value in counters.items():
        stats[key] = stats.get(key, 0.0) + value


@dataclass(frozen=True)
class QueryResult:
    """Grouped matches for one query batch.

    ``queries`` / ``ids`` / ``distances`` are parallel arrays ordered by
    query index — within a query by record id (threshold mode) or by
    ``(distance, id)`` (top-k mode).  ``n_queries`` is the batch size,
    including queries with no matches.
    """

    queries: np.ndarray
    ids: np.ndarray
    distances: np.ndarray
    n_queries: int

    @property
    def n_matches(self) -> int:
        return int(self.queries.size)

    def matches(self) -> list[list[tuple[int, int]]]:
        """Per-query ``(record_id, distance)`` lists (length ``n_queries``)."""
        return group_matches(self.queries, self.ids, self.distances, self.n_queries)


class QueryEngine:
    """Batched threshold / top-k queries against an attached index.

    Construct with :meth:`from_bundle` (serve a persisted bundle of
    either layout: a plain one memory-mapped, a sharded one indexed in
    memory with its WAL replayed) or :meth:`build` (index rows in
    memory, e.g. before a first :meth:`save`).  Results are
    byte-identical for every layout and shard count.

    Beyond querying, the engine fronts a sharded bundle's lifecycle:
    :meth:`ingest` durably appends records (write-ahead logged, fsync'd
    before acknowledgement), :meth:`compact` folds the accumulated
    overlay into a new snapshot version with an atomic manifest swap.
    On a plain bundle both raise
    :class:`~repro.core.shards.PlainBundleError`.

    The real-time setting of the paper's Section 1 (insert records as
    they arrive, match each incoming one at once) is an unsaved engine:
    ``build([], encoder, threshold, n_shards=1)``, then :meth:`ingest`,
    which writes no WAL until :meth:`save`, and :meth:`query_batch`.

    Examples
    --------
    >>> from repro.core.encoder import RecordEncoder
    >>> from repro.core.cvector import CVectorEncoder
    >>> enc = RecordEncoder([CVectorEncoder(64, seed=3)], names=['name'])
    >>> engine = QueryEngine.build(
    ...     [('JONES',), ('SMITH',), ('JONAS',)], enc, threshold=20, k=8, seed=3)
    >>> result = engine.query_batch([('JONES',)])
    >>> result.n_queries
    1
    """

    def __init__(self, index: ShardedIndex):
        self.index = index
        #: Counters summed over every served batch: wall-clock
        #: accumulators (``time_embed_s``; ``time_query_s`` — the one
        #: scan of the query view, also readable as ``time_fanout_s``, the
        #: name the sharded engine had for that interval; ``time_merge_s``,
        #: always 0: there is no shard merge) and batch
        #: bookkeeping (``n_batches``, ``n_queries``).
        self.stats: dict[str, float] = {}
        #: Per-batch wall-clock distribution (whole ``query_batch`` call);
        #: p50/p95/p99 derivable offline from its
        #: :meth:`~repro.perf.LogHistogram.snapshot`.
        self.batch_time_hist = LogHistogram.latency()
        #: Per-shard counters (``time_query_s``), summed over every served
        #: batch.  Every shard's records are in the one scan, so each
        #: shard's entry accumulates that scan's wall time: equal across
        #: shards and always positive.
        self.shard_stats: list[dict[str, float]] = [{} for __ in range(index.n_shards)]

    # -- constructors ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        rows: Sequence[Sequence[str]],
        encoder: RecordEncoder,
        threshold: int,
        k: int = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        n_tables: int | None = None,
        seed: int | None = None,
        n_shards: int | None = None,
    ) -> "QueryEngine":
        """Index ``rows`` in memory under a calibrated ``encoder``.

        Without ``n_shards`` the result is a plain read-only index whose
        :meth:`save` writes a single-index bundle; with ``n_shards >= 1``
        the rows are partitioned by id and :meth:`save` writes a sharded
        bundle that accepts :meth:`ingest` and :meth:`compact`.
        """
        index = ShardedIndex.build(
            [tuple(row) for row in rows],
            encoder,
            n_shards=n_shards,
            threshold=threshold,
            k=k,
            delta=delta,
            n_tables=n_tables,
            seed=seed,
        )
        return cls(index)

    @classmethod
    def from_bundle(
        cls, path: str | Path, mmap_mode: str | None = "r"
    ) -> "QueryEngine":
        """Serve a persisted bundle (a plain one mapped, a sharded one indexed, WAL replayed)."""
        return cls(ShardedIndex.open(path, mmap_mode=mmap_mode))

    from_snapshot = from_bundle

    # -- lifecycle ---------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the index in its own layout and serve it from ``path``."""
        return self.index.save(path)

    def ingest(self, rows: Sequence[Sequence[str]]) -> list[int]:
        """Durably append records; returns their assigned global ids.

        For a persisted engine every record is written to its shard's
        write-ahead segment and fsync'd **before** this returns — the
        returned ids are the acknowledgement, and a crash at any moment
        recovers to a prefix of the acknowledged stream.  Appended
        records are immediately queryable.
        """
        return self.index.append_batch([tuple(row) for row in rows])

    def compact(self) -> int:
        """Fold the ingest overlay into new shard snapshots (new version)."""
        return self.index.compact()

    def close(self) -> None:
        """Release the bundle's write-ahead segment writers (idempotent)."""
        self.index.close()

    # -- introspection -----------------------------------------------------------

    @property
    def n_indexed(self) -> int:
        """Number of reference records served (including the overlay)."""
        return self.index.n_rows

    @property
    def n_shards(self) -> int:
        return self.index.n_shards

    @property
    def threshold(self) -> int:
        """The bundle's recorded matching threshold."""
        return self.index.threshold

    # -- queries -----------------------------------------------------------------

    def query_batch(
        self,
        rows: Sequence[Sequence[str]],
        threshold: int | None = None,
        top_k: int | None = None,
    ) -> QueryResult:
        """Match a batch of query records against every indexed record.

        ``threshold`` defaults to the one recorded in the bundle;
        ``top_k`` keeps at most that many closest matches per query,
        ties broken deterministically by the smaller record id.  Ids in
        the result are **global** record ids.  A negative ``threshold`` or a
        ``top_k`` below 1 raises ``ValueError`` whatever the batch size.
        """
        effective = self.threshold if threshold is None else threshold
        if effective < 0:
            raise ValueError(f"threshold must be >= 0, got {effective}")
        if top_k is not None and top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        work = [tuple(row) for row in rows]
        if not work:
            return QueryResult(_EMPTY, _EMPTY, _EMPTY, 0)
        started = time.perf_counter()
        matrix_b = self.index.encoder.encode_dataset(work)
        embedded = time.perf_counter()
        queries, gids, distances = batch_query(
            self.index.lsh, self.index.words, matrix_b, effective, top_k
        )
        scanned = time.perf_counter()
        for per_shard in self.shard_stats:
            fold_counters(per_shard, {"time_query_s": scanned - embedded})
        fold_counters(
            self.stats,
            {
                "n_batches": 1.0,
                "n_queries": float(len(work)),
                "time_embed_s": embedded - started,
                "time_query_s": scanned - embedded,
                "time_fanout_s": scanned - embedded,
                "time_merge_s": 0.0,
            },
        )
        self.batch_time_hist.record(scanned - started)
        return QueryResult(queries, gids, distances, len(work))
