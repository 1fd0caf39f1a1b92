"""Scatter-gather serving over a sharded index (:class:`ShardedQueryEngine`).

The sharded sibling of :class:`repro.serve.engine.QueryEngine`: the
reference dataset lives in an ``N``-shard bundle
(:class:`repro.core.shards.ShardedIndex`), a query batch is embedded
**once**, fanned across per-shard workers, and the per-shard results are
merged deterministically.  The parallel machinery is the same
initializer pattern as the single-shard engine: each pool worker runs
:func:`_init_sharded_worker` exactly once and attaches the whole sharded
bundle — every shard's payloads memory-mapped, the write-ahead overlay
replayed — so per-task payloads are just the packed query words.

**Why the merge is byte-identical to a single index.**  Every record
lives in exactly one shard and keeps its global id, and all shards share
one set of sampled LSH positions, so a record's candidacy for a query is
unchanged by sharding.  Threshold mode re-sorts the concatenated matches
by ``(query, id)`` — the single-shard order.  Top-k mode asks each shard
for its own top-k (a superset of the global winners: any globally kept
match has fewer than ``k`` better matches even within its shard), then
re-sorts the union by ``(query, distance, id)`` and cuts each query
segment to ``k`` — the exact composite-sort-and-cut
:func:`repro.hamming.query.batch_query` performs.  Within a shard local
row order follows global-id order (ids are assigned monotonically), so
per-shard tie-breaks already agree with the global ``(distance, id)``
rule; shard number never decides.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import DEFAULT_DELTA, DEFAULT_K
from repro.core.encoder import RecordEncoder
from repro.core.shards import ShardedIndex
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import Probe
from repro.hamming.query import batch_query, first_per_query
from repro.hamming.sketch import VerifyConfig
from repro.perf import LogHistogram, ParallelConfig, parallel_map
from repro.serve.engine import QueryResult, fold_counters

_EMPTY = np.empty(0, dtype=np.int64)

#: Default ceiling on ``len(batch) * n_shards`` below which the fan-out
#: runs serially in-process even when a worker pool is configured: for
#: small batches the per-task dispatch (and, for the process backend,
#: pool startup) costs more than scanning every shard inline.  The
#: serial path is byte-identical to the pooled fan-out — same per-shard
#: kernel, same deterministic merge.
DEFAULT_SERIAL_BATCH_LIMIT = 1024

#: Per-process worker state, set exactly once by :func:`_init_sharded_worker`.
_SHARD_STATE: dict[str, Any] = {}


def _init_sharded_worker(source: str | ShardedIndex, mmap_mode: str | None) -> None:
    """Attach the sharded bundle in a pool worker (runs once per worker).

    ``source`` is the bundle root path for persisted engines — each
    worker memory-maps the shard payloads itself and replays the
    write-ahead segments, so it serves exactly the acknowledged state —
    or the in-memory :class:`ShardedIndex` for never-persisted engines,
    shipped once per worker rather than once per task.
    """
    if isinstance(source, ShardedIndex):
        _SHARD_STATE["index"] = source
    else:
        _SHARD_STATE["index"] = ShardedIndex.open(source, mmap_mode=mmap_mode)


def _query_one_shard(
    task: tuple[int, np.ndarray, int, Probe, int, int | None, VerifyConfig | None],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, float]]:
    """Answer one shard's slice of the fan-out against the attached bundle.

    The query batch arrives pre-embedded (its packed ``uint64`` words)
    and pre-probed (its blocking keys sorted once for every shard);
    the worker rebuilds the :class:`BitMatrix` view, runs the shared
    batch kernel against its shard's rows, and translates local row ids
    back to global record ids.  Workers stay pure — counters (including
    the shard's wall-clock ``time_query_s``) ride back in the result.
    """
    shard, words_b, n_bits, probe, threshold, top_k, verify = task
    index: ShardedIndex = _SHARD_STATE["index"]
    state = index.shards[shard]
    matrix_b = BitMatrix(words_b, n_bits)
    counters: dict[str, float] = {}
    started = time.perf_counter()
    queries, local_ids, distances = batch_query(
        state.lsh, state.words[: state.count], matrix_b, threshold, top_k, verify, counters, probe
    )
    counters["time_query_s"] = time.perf_counter() - started
    gids = np.asarray(state.row_ids[: state.count][local_ids], dtype=np.int64)
    return queries, gids, distances, counters


def _merge_shard_parts(
    parts: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, float]]],
    top_k: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic gather: single-shard ordering over the shard union.

    Global ids are unique across shards, so the two-key (threshold) and
    three-key (top-k) lexicographic sorts below have no ties left for the
    shard number to break — the merged arrays are byte-identical to one
    :func:`~repro.hamming.query.batch_query` over the unsharded index.
    """
    queries = np.concatenate([part[0] for part in parts])
    gids = np.concatenate([part[1] for part in parts])
    distances = np.concatenate([part[2] for part in parts])
    if queries.size == 0:
        return _EMPTY, _EMPTY, _EMPTY
    if top_k is None:
        order = np.lexsort((gids, queries))
        return queries[order], gids[order], distances[order]
    order = np.lexsort((gids, distances, queries))
    queries, gids, distances = queries[order], gids[order], distances[order]
    head = first_per_query(queries, top_k)
    return queries[head], gids[head], distances[head]


class ShardedQueryEngine:
    """Batched queries fanned across the shards of a sharded bundle.

    Construct with :meth:`from_bundle` (serve a persisted sharded bundle,
    shard payloads memory-mapped, WAL replayed) or :meth:`build` (shard
    and index rows in memory, e.g. before a first :meth:`save`).
    Results are byte-identical to the single-shard
    :class:`~repro.serve.engine.QueryEngine` over the same records, for
    every ``n_shards``, ``n_jobs`` and backend.

    Beyond querying, the engine fronts the bundle's lifecycle:
    :meth:`ingest` durably appends records (write-ahead logged, fsync'd
    before acknowledgement), :meth:`compact` folds the accumulated
    overlay into a new snapshot version with an atomic manifest swap.
    """

    def __init__(
        self,
        index: ShardedIndex,
        parallel: ParallelConfig | None = None,
        mmap_mode: str | None = "r",
        verify: VerifyConfig | None = None,
        serial_batch_limit: int | None = DEFAULT_SERIAL_BATCH_LIMIT,
    ):
        self.index = index
        self.parallel = parallel or ParallelConfig()
        self._mmap_mode = mmap_mode
        self.verify = verify
        #: Scan shards in-process when ``len(batch) * n_shards`` is at or
        #: under this limit, regardless of ``parallel`` — small batches
        #: lose more to pool dispatch than they gain from parallelism
        #: (see BENCH_serving.json's ``sharded_small_batch`` cell).
        #: ``None`` disables the serial path (always fan out).
        self.serial_batch_limit = serial_batch_limit
        #: Engine-level counters summed over every served batch: prefilter
        #: tiers when enabled, plus ``time_embed_s`` / ``time_fanout_s`` /
        #: ``time_merge_s`` wall-clock accumulators, ``n_batches``,
        #: ``n_queries`` and ``n_serial_batches`` (batches answered by the
        #: small-batch in-process path).
        self.stats: dict[str, float] = {}
        #: Per-batch wall-clock distribution (whole ``query_batch`` call);
        #: p50/p95/p99 derivable offline from its snapshot.
        self.batch_time_hist = LogHistogram.latency()
        #: Per-shard counters (``time_query_s``, candidate-generation and
        #: prefilter tiers), summed over every served batch.
        self.shard_stats: list[dict[str, float]] = [{} for __ in range(index.n_shards)]

    # -- constructors ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        rows: Sequence[Sequence[str]],
        encoder: RecordEncoder,
        n_shards: int,
        threshold: int,
        k: int = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        n_tables: int | None = None,
        seed: int | None = None,
        max_chunk_pairs: int | None = None,
        parallel: ParallelConfig | None = None,
        verify: VerifyConfig | None = None,
        serial_batch_limit: int | None = DEFAULT_SERIAL_BATCH_LIMIT,
    ) -> "ShardedQueryEngine":
        """Shard and index ``rows`` in memory under a calibrated encoder."""
        index = ShardedIndex.build(
            [tuple(row) for row in rows],
            encoder,
            n_shards=n_shards,
            threshold=threshold,
            k=k,
            delta=delta,
            n_tables=n_tables,
            seed=seed,
            max_chunk_pairs=max_chunk_pairs,
        )
        return cls(index, parallel=parallel, verify=verify, serial_batch_limit=serial_batch_limit)

    @classmethod
    def from_bundle(
        cls,
        path: str | Path,
        parallel: ParallelConfig | None = None,
        mmap_mode: str | None = "r",
        verify: VerifyConfig | None = None,
        serial_batch_limit: int | None = DEFAULT_SERIAL_BATCH_LIMIT,
    ) -> "ShardedQueryEngine":
        """Serve a persisted sharded bundle (mmap payloads, replay WAL)."""
        index = ShardedIndex.open(path, mmap_mode=mmap_mode)
        return cls(index, parallel, mmap_mode, verify, serial_batch_limit)

    # -- lifecycle ---------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the index as a sharded bundle and serve it from disk."""
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
        """Match a batch of query records against every shard and merge.

        The batch is embedded and its blocking keys sorted once; the
        packed query words and that probe fan out to one task per shard
        (inline when ``parallel.n_jobs <= 1`` or when ``len(batch) *
        n_shards`` is at or under :attr:`serial_batch_limit`, else via
        :func:`repro.perf.parallel_map` with the bundle attached per
        worker by the initializer).  The merge re-establishes the
        single-shard result order — see the module docstring for why
        that is byte-identical.  Ids in the result are **global** record ids.
        """
        effective = self.threshold if threshold is None else threshold
        work = [tuple(row) for row in rows]
        if not work:
            return QueryResult(_EMPTY, _EMPTY, _EMPTY, 0)
        started = time.perf_counter()
        matrix_b = self.index.encoder.encode_dataset(work)
        embedded = time.perf_counter()
        probe = self.index.shards[0].lsh.probe(matrix_b)  # shards share one set of positions
        tasks = [
            (shard, matrix_b.words, matrix_b.n_bits, probe, effective, top_k, self.verify)
            for shard in range(self.n_shards)
        ]
        small = self.serial_batch_limit is not None and (
            len(work) * self.n_shards <= self.serial_batch_limit
        )
        serial = self.parallel.effective_jobs <= 1 or self.n_shards <= 1 or small
        if serial:
            _init_sharded_worker(self.index, self._mmap_mode)
            parts = [_query_one_shard(task) for task in tasks]
        else:
            source: str | ShardedIndex = self.index
            if self.parallel.backend == "process" and self.index.path is not None:
                source = str(self.index.path)
            parts = parallel_map(
                _query_one_shard,
                tasks,
                self.parallel,
                initializer=_init_sharded_worker,
                initargs=(source, self._mmap_mode),
            )
        fanned = time.perf_counter()
        queries, gids, distances = _merge_shard_parts(parts, top_k)
        merged = time.perf_counter()
        for per_shard, part in zip(self.shard_stats, parts):
            fold_counters(per_shard, part[3])
            fold_counters(self.stats, part[3])
        batch = {"n_batches": 1.0, "n_queries": float(len(work))}
        batch.update(time_embed_s=embedded - started, time_fanout_s=fanned - embedded)
        batch["time_merge_s"] = merged - fanned
        if serial:
            batch["n_serial_batches"] = 1.0
        fold_counters(self.stats, batch)
        self.batch_time_hist.record(merged - started)
        return QueryResult(queries, gids, distances, len(work))
