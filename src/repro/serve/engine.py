"""Snapshot-backed batched query serving (:class:`QueryEngine`).

The serving story for the paper's real-time setting: index the reference
dataset once, persist it as a snapshot bundle
(:func:`repro.core.persist.save_index_snapshot`), then answer batched
threshold / top-k queries against the loaded bundle at high throughput.

Parallel fan-out never pickles the index per task.  Each worker process
runs :func:`_init_query_worker` exactly once: for an on-disk engine the
initializer re-opens the bundle with ``numpy.load(..., mmap_mode="r")``,
so every worker shares the same page-cache copy of the packed words and
bucket arrays; for a never-persisted in-memory engine the snapshot object
ships once per worker through the initializer arguments instead.  Query
rows — the only per-task payload — are tiny.

Sharding uses :meth:`repro.perf.ParallelConfig.shard_ranges`, and the
batch kernel (:func:`repro.hamming.query.batch_query`) is deterministic
per shard, so results are byte-identical for every ``n_jobs``, backend
and start method.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import DEFAULT_DELTA, DEFAULT_K
from repro.core.encoder import RecordEncoder
from repro.core.persist import IndexSnapshot, load_index_snapshot, save_index_snapshot
from repro.hamming.lsh import HammingLSH
from repro.hamming.query import batch_query, group_matches
from repro.hamming.sketch import VerifyConfig, reject_rate
from repro.perf import LogHistogram, ParallelConfig, parallel_map

_EMPTY = np.empty(0, dtype=np.int64)

#: Per-process worker state, set exactly once by :func:`_init_query_worker`.
_WORKER_STATE: dict[str, Any] = {}


def _init_query_worker(source: str | IndexSnapshot, mmap_mode: str | None) -> None:
    """Attach the index in a pool worker (runs once per worker process).

    ``source`` is the bundle path for persisted engines — each worker
    memory-maps the read-only payloads itself, nothing is pickled — or
    the :class:`IndexSnapshot` object for in-memory engines, shipped
    once per worker rather than once per task.
    """
    if isinstance(source, IndexSnapshot):
        _WORKER_STATE["snapshot"] = source
    else:
        _WORKER_STATE["snapshot"] = load_index_snapshot(source, mmap_mode=mmap_mode)


def _query_shard(
    task: tuple[list[tuple[str, ...]], int, int | None, VerifyConfig | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, float]]:
    """Answer one contiguous shard of query rows against the attached index.

    Returns the shard's grouped match arrays plus its counters: prefilter
    tiers when the sketch prefilter is on, and the shard's wall-clock
    ``time_embed_s`` / ``time_query_s`` — workers stay pure, the engine
    merges counters additively.
    """
    rows, threshold, top_k, verify = task
    snapshot: IndexSnapshot = _WORKER_STATE["snapshot"]
    started = time.perf_counter()
    matrix_b = snapshot.encoder.encode_dataset(rows)
    embedded = time.perf_counter()
    counters: dict[str, float] = {}
    queries, ids, distances = batch_query(
        snapshot.lsh,
        snapshot.matrix.words,
        matrix_b,
        threshold=threshold,
        top_k=top_k,
        verify=verify,
        counters=counters,
    )
    counters["time_embed_s"] = embedded - started
    counters["time_query_s"] = time.perf_counter() - embedded
    return queries, ids, distances, counters


def fold_counters(stats: dict[str, float], counters: dict[str, float]) -> None:
    """Add one shard's or batch's ``counters`` into ``stats``.

    Every counter — prefilter tiers and wall-clock timings — accumulates.
    The derived ``prefilter_reject_rate`` ratio is never summed; it is
    recomputed from the merged totals, and only once the prefilter has run.
    """
    for key, value in counters.items():
        if key != "prefilter_reject_rate":
            stats[key] = stats.get(key, 0.0) + value
    if "pairs_prefiltered" in stats:
        stats["prefilter_reject_rate"] = reject_rate(stats)


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
    """Batched threshold / top-k queries against a loaded index snapshot.

    Construct with :meth:`from_snapshot` (serve a persisted bundle,
    zero-copy via ``mmap``) or :meth:`build` (index rows in memory, e.g.
    before a first :meth:`save`).  ``parallel`` shards query batches over
    worker processes or threads; results are byte-identical for every
    configuration.

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

    def __init__(
        self,
        snapshot: IndexSnapshot,
        parallel: ParallelConfig | None = None,
        mmap_mode: str | None = "r",
        verify: VerifyConfig | None = None,
    ):
        if snapshot.threshold is None:
            raise ValueError(
                "snapshot records no matching threshold; pass one to "
                "query_batch or rebuild the snapshot with a threshold"
            )
        self.snapshot = snapshot
        self.parallel = parallel or ParallelConfig()
        self._mmap_mode = mmap_mode
        self.verify = verify
        #: Counters summed over every served batch: per-stage wall-clock
        #: accumulators (``time_embed_s``, ``time_query_s``), batch
        #: bookkeeping (``n_batches``, ``n_queries``) and — when the
        #: sketch prefilter is on — its tier counters
        #: (``pairs_prefiltered``, ``pairs_rejected_t<i>``,
        #: ``pairs_exact``, ``prefilter_reject_rate``).
        self.stats: dict[str, float] = {}
        #: Per-batch wall-clock distribution (whole ``query_batch`` call,
        #: embed + fan-out + merge).  The summed counters in :attr:`stats`
        #: recover the mean; this histogram makes p50/p95/p99 derivable
        #: offline from its :meth:`~repro.perf.LogHistogram.snapshot`.
        self.batch_time_hist = LogHistogram.latency()

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_snapshot(
        cls,
        path: str | Path,
        parallel: ParallelConfig | None = None,
        mmap_mode: str | None = "r",
        verify: VerifyConfig | None = None,
    ) -> "QueryEngine":
        """Serve a persisted bundle; payloads stay memory-mapped (zero-copy)."""
        snapshot = load_index_snapshot(path, mmap_mode=mmap_mode)
        return cls(snapshot, parallel=parallel, mmap_mode=mmap_mode, verify=verify)

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
        max_chunk_pairs: int | None = None,
        parallel: ParallelConfig | None = None,
        verify: VerifyConfig | None = None,
    ) -> "QueryEngine":
        """Index ``rows`` in memory under a calibrated ``encoder``.

        The result is a never-persisted engine (``snapshot.path is
        None``); call :meth:`save` to turn it into a bundle that
        :meth:`from_snapshot` can serve zero-copy.
        """
        matrix = encoder.encode_dataset([tuple(row) for row in rows])
        lsh = HammingLSH(
            n_bits=encoder.total_bits,
            k=k,
            threshold=threshold,
            delta=delta,
            n_tables=n_tables,
            seed=seed,
            max_chunk_pairs=max_chunk_pairs,
        )
        lsh.index(matrix)
        snapshot = IndexSnapshot(
            encoder=encoder, matrix=matrix, lsh=lsh, threshold=threshold
        )
        return cls(snapshot, parallel=parallel, verify=verify)

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the index as a snapshot bundle and point the engine at it.

        After saving, parallel workers attach via the bundle path (mmap)
        instead of receiving a pickled copy of the index.
        """
        snapshot = self.snapshot
        bundle = save_index_snapshot(
            path,
            snapshot.encoder,
            snapshot.matrix,
            snapshot.lsh,
            threshold=snapshot.threshold,
        )
        self.snapshot = IndexSnapshot(
            encoder=snapshot.encoder,
            matrix=snapshot.matrix,
            lsh=snapshot.lsh,
            threshold=snapshot.threshold,
            path=bundle,
            manifest=snapshot.manifest,
        )
        return bundle

    # -- queries -----------------------------------------------------------------

    @property
    def n_indexed(self) -> int:
        """Number of reference records in the served index."""
        return self.snapshot.n_rows

    def query_batch(
        self,
        rows: Sequence[Sequence[str]],
        threshold: int | None = None,
        top_k: int | None = None,
    ) -> QueryResult:
        """Match a batch of query records against the served index.

        ``threshold`` defaults to the one recorded in the snapshot;
        ``top_k`` keeps at most that many closest matches per query,
        ties broken deterministically by the smaller record id.  With
        ``parallel.n_jobs > 1`` the batch is split into contiguous
        shards (:meth:`~repro.perf.ParallelConfig.shard_ranges`); each
        worker attaches the index once via the pool initializer, so only
        the query rows travel per task.

        When the engine was built with an enabled
        :class:`~repro.hamming.sketch.VerifyConfig`, candidate
        verification runs through the sketch prefilter (same matches,
        byte-identical) and the per-tier counters are summed into
        :attr:`stats`.
        """
        effective = self.threshold if threshold is None else threshold
        work = [tuple(row) for row in rows]
        if not work:
            return QueryResult(_EMPTY, _EMPTY, _EMPTY, 0)
        call_started = time.perf_counter()
        shards = self.parallel.shard_ranges(len(work))
        if self.parallel.effective_jobs <= 1 or len(shards) <= 1:
            _init_query_worker(self.snapshot, self._mmap_mode)
            queries, ids, distances, counters = _query_shard(
                (work, effective, top_k, self.verify)
            )
            fold_counters(self.stats, counters)
            self._account_batch(len(work), time.perf_counter() - call_started)
            return QueryResult(queries, ids, distances, len(work))
        source: str | IndexSnapshot = self.snapshot
        if self.parallel.backend == "process" and self.snapshot.path is not None:
            source = str(self.snapshot.path)
        tasks = [(work[lo:hi], effective, top_k, self.verify) for lo, hi in shards]
        parts = parallel_map(
            _query_shard,
            tasks,
            self.parallel,
            initializer=_init_query_worker,
            initargs=(source, self._mmap_mode),
        )
        queries = np.concatenate(
            [part[0] + lo for part, (lo, __) in zip(parts, shards)]
        )
        ids = np.concatenate([part[1] for part in parts])
        distances = np.concatenate([part[2] for part in parts])
        for part in parts:
            fold_counters(self.stats, part[3])
        self._account_batch(len(work), time.perf_counter() - call_started)
        return QueryResult(queries, ids, distances, len(work))

    def _account_batch(self, n_queries: int, elapsed_s: float) -> None:
        """Record one served batch in the engine stats and histogram."""
        self.stats["n_batches"] = self.stats.get("n_batches", 0.0) + 1.0
        self.stats["n_queries"] = self.stats.get("n_queries", 0.0) + float(n_queries)
        self.batch_time_hist.record(elapsed_s)

    @property
    def threshold(self) -> int:
        """The snapshot's recorded matching threshold."""
        assert self.snapshot.threshold is not None  # checked in __init__
        return self.snapshot.threshold
