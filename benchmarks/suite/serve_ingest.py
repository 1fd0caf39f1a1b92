"""Workload ``serve-ingest-mixed``: writes beside reads on 4 shards + WAL.

``ShardedQueryEngine.build`` on the first three quarters of A -> ``save``
-> ``from_bundle``; then one closed-loop client:

``clean``    ``query_batch`` of 1024 against the compacted bundle.
``overlay``  an un-compacted tail ingested, then ``query_batch`` of 1024
             against that overlay — the cliff: a shard with any overlay
             leaves the vectorised join for a per-bucket loop.
``mixed``    ``compact()``, then cycles of {durable ``ingest`` of 64 rows;
             8 x ``query_batch`` of 64}, ``compact()`` four times along the
             way.
``overlay``  a second tail, and the other half of the overlay reads.
``reopen``   ``close()``, ``from_bundle`` replaying the WAL tail.
``clean``    ``compact()``, then the other half of the clean reads.

This is the only workload that enters ``core.shards``, ``wal`` and the
scatter-gather merge, so an ingest speed-up that costs query latency, or
a query fast path that ignores the overlay, shows here and nowhere else.
It never touches the async front-end.

Operation counts are fixed by ``--seconds`` (not by the clock), because
the state each phase meets — how much overlay, how many rows — depends on
how many operations ran before it.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

import spec
import staged
from harness import (
    Row,
    Run,
    Slice,
    make_problem,
    query_stream,
    scratch_dir,
    settle_heap,
    tree_bytes,
)
from repro.core.shards import ShardedIndex, wal_name
from repro.serve import ShardedQueryEngine
from repro.serve.engine import QueryResult
from repro.wal import SegmentWriter, replay_segment
from serve_readonly import K, THRESHOLD, Answer, calibrate, put_pairs_completeness
from tracing import Tracer, trace_keys

N_SHARDS = 4
INGEST_ROWS = 64
QUERY_ROWS = 64
QUERIES_PER_CYCLE = 8
CYCLES_PER_SECOND = 4
N_COMPACTIONS = 4
#: Un-compacted rows the overlay phase queries against, at ``--scale 1``.
TAIL_ROWS = 5000
REOPEN_CHECK_ROWS = 2048
FINAL_CHECK_QUERIES = 4096
STREAM = 1 << 16
SHARE = {"overlay": 0.20, "clean": 0.10}


class _Rows:
    """The not-yet-indexed quarter of A, handed out in ingest batches."""

    def __init__(self, pool: list[Row]):
        self.pool = pool
        self.cursor = 0
        self.ingested: list[Row] = []
        self.ids: list[int] = []
        #: Frames of the un-compacted WAL tail, kept for the traced pass.
        self.wal_payloads: list[bytes] = []

    def take(self, n: int) -> list[Row]:
        rows = [self.pool[(self.cursor + i) % len(self.pool)] for i in range(n)]
        self.cursor += n
        return rows

    def acked(self, rows: list[Row], ids: list[int]) -> None:
        self.ingested.extend(rows)
        self.ids.extend(ids)


def _own_row_found(engine: ShardedQueryEngine, rows: list[Row], ids: list[int]) -> int:
    """How many of ``ids`` come back at distance 0 for their own row."""
    hits = 0
    for lo in range(0, len(rows), 1024):
        answers = engine.query_batch(rows[lo : lo + 1024]).matches()
        hits += sum((gid, 0) in answer for gid, answer in zip(ids[lo : lo + 1024], answers))
    return hits


def run(run: Run) -> None:
    n = run.scaled(spec.NCVR_N, floor=2000)
    base = n * 3 // 4
    problem, generate_s = make_problem("ncvr", n, run.seed)
    run.put("data.generate_s", generate_s)
    rows_a = problem.dataset_a.value_rows()
    rows_b = problem.dataset_b.value_rows()
    truth_of_b = {b: a for a, b in problem.true_matches}
    encoder = calibrate(problem)
    stream_ids = query_stream(n, STREAM, run.seed + 1)
    stream = [rows_b[i] for i in stream_ids]
    feed = _Rows(rows_a[base:])
    base_rows = rows_a[:base]
    cycles = max(N_COMPACTIONS, round(CYCLES_PER_SECOND * run.seconds))
    tail = run.scaled(TAIL_ROWS, floor=2 * INGEST_ROWS)
    run.sizes.update(records=n, built=base, shards=N_SHARDS, cycles=cycles, tail_rows=tail)
    del problem, rows_a, rows_b

    with scratch_dir(run.out_dir) as work:
        setup_cycles: list[float] = []
        for i in range(3):
            started = time.perf_counter()
            built = ShardedQueryEngine.build(base_rows, encoder, n_shards=N_SHARDS,
                                             threshold=THRESHOLD, k=K, seed=spec.PROGRAM_SEED)
            bundle = built.save(work / f"bundle-{i}")
            built.close()
            engine = ShardedQueryEngine.from_bundle(bundle)
            setup_cycles.append(time.perf_counter() - started)
            if i < 2:
                engine.close()
        del built
        settle_heap()
        run.mark_setup_done(setup_cycles)
        try:
            engine = _measure(run, engine, bundle, feed, stream)
            _final_checks(run, engine, encoder, base_rows, feed, stream, stream_ids, truth_of_b)
            if run.trace:
                _traced_replay(run, work, engine, feed, stream)
        finally:
            engine.close()


def _measure(run: Run, engine: ShardedQueryEngine, bundle: Path, feed: _Rows,
             stream: list[Row]) -> ShardedQueryEngine:
    """The untraced pass; returns the (reopened) engine."""
    cycles = run.sizes["cycles"]
    compact_every = cycles // N_COMPACTIONS
    ingest_walls: list[float] = []
    query_walls: list[float] = []
    compact_walls: list[float] = []
    split = {"time_embed_s": 0.0, "time_fanout_s": 0.0, "time_merge_s": 0.0,
             "n_batches": 0.0, "n_serial_batches": 0.0}
    position = 0
    # ``clean`` and ``overlay`` each read in two halves, one at either end of
    # the run: the host slows down for seconds at a time, and one window
    # would sit inside such a stretch or outside it.
    clean_walls = _bulk_reads(run, engine, stream, SHARE["clean"] / 2)
    overlay_walls = _overlay_reads(run, engine, feed, stream)
    engine.compact()
    for cycle in range(cycles):
        rows = feed.take(INGEST_ROWS)
        started = time.perf_counter()
        ids = engine.ingest(rows)
        ingest_walls.append(time.perf_counter() - started)
        feed.acked(rows, ids)
        run.check(_own_row_found(engine, rows, ids) == len(ids),  # untimed
                  f"cycle {cycle}: an acknowledged id is not served at distance 0")
        before = dict(engine.stats)
        for __ in range(QUERIES_PER_CYCLE):
            batch = stream[position : position + QUERY_ROWS]
            position = (position + QUERY_ROWS) % (STREAM - QUERY_ROWS)
            started = time.perf_counter()
            engine.query_batch(batch).matches()
            query_walls.append(time.perf_counter() - started)
        for key in split:
            split[key] += engine.stats.get(key, 0.0) - before.get(key, 0.0)
        if (cycle + 1) % compact_every == 0 and len(compact_walls) < N_COMPACTIONS:
            started = time.perf_counter()
            engine.compact()
            compact_walls.append(time.perf_counter() - started)
    run.ops(len(ingest_walls) + len(query_walls) + len(compact_walls))
    run.put_rate("ingest_rows_per_s", INGEST_ROWS, ingest_walls)
    run.put_median("mixed_q64_p50_ms", query_walls, 1e3)
    run.put_median("compact_s", compact_walls)
    batches = split["n_batches"]
    for part in ("embed", "fanout", "merge"):
        run.put(f"serve.sharded.{part}_ms", split[f"time_{part}_s"] / batches * 1e3)
    run.put("serve.sharded.serial_share", split["n_serial_batches"] / batches)
    shard_times = [s.get("time_query_s", 0.0) for s in engine.shard_stats]
    run.put("serve.sharded.shard_time_skew", max(shard_times) / (sum(shard_times) / N_SHARDS))

    overlay_walls += _overlay_reads(run, engine, feed, stream)
    run.put("core.shards.overlay_rows", engine.index.overlay_rows)
    run.put_rate("overlay_q1024_qps", 1024, overlay_walls)
    if run.trace:
        started = time.perf_counter()
        replays = [replay_segment(bundle / wal_name(shard)) for shard in range(N_SHARDS)]
        run.put("wal.replay_s", time.perf_counter() - started)
        feed.wal_payloads = [p for r in replays for p in r.records]
        run.put("wal.bytes_per_record",
                sum(r.durable_bytes for r in replays) / max(1, len(feed.wal_payloads)))

    # -- reopen with replay, then compact and read again ---------------------------
    engine.close()
    started = time.perf_counter()
    engine = ShardedQueryEngine.from_bundle(bundle)
    run.put("reopen_s", time.perf_counter() - started)
    run.ops(1)
    run.put("core.shards.replayed_records", engine.index.counters["wal_replayed_records"])
    recent = slice(-min(REOPEN_CHECK_ROWS, len(feed.ids)), None)
    run.check(_own_row_found(engine, feed.ingested[recent], feed.ids[recent])
              == len(feed.ids[recent]),
              "after reopen: an acknowledged id is not served at distance 0")
    engine.compact()
    run.check(_own_row_found(engine, feed.ingested, feed.ids) == len(feed.ids),
              "after compaction: an acknowledged id is not served at distance 0")
    clean_walls += _bulk_reads(run, engine, stream, SHARE["clean"] / 2)
    run.put_rate("serve.sharded.clean_q1024_qps", 1024, clean_walls)
    return engine


def _overlay_reads(run: Run, engine: ShardedQueryEngine, feed: _Rows,
                   stream: list[Row]) -> list[float]:
    """Ingest a tail nobody compacts, then read in bulk against it."""
    for __ in range(-(-run.sizes["tail_rows"] // INGEST_ROWS)):
        rows = feed.take(INGEST_ROWS)
        feed.acked(rows, engine.ingest(rows))
    return _bulk_reads(run, engine, stream, SHARE["overlay"] / 2)


def _bulk_reads(run: Run, engine: ShardedQueryEngine, stream: list[Row],
                share: float) -> list[float]:
    walls: list[float] = []
    budget = Slice(run.seconds * share, min_ops=5)
    while budget.more():
        lo = (len(walls) * 1024) % STREAM
        started = time.perf_counter()
        engine.query_batch(stream[lo : lo + 1024]).matches()
        walls.append(time.perf_counter() - started)
    run.ops(len(walls))
    return walls


def _final_checks(run: Run, engine: ShardedQueryEngine, encoder, base_rows: list[Row],  # noqa: ANN001
                  feed: _Rows, stream: list[Row], stream_ids: list[int],
                  truth_of_b: dict[int, int]) -> None:
    """The final bundle against a fresh build over the same records."""
    n_check = min(FINAL_CHECK_QUERIES, len(base_rows) // 2)
    fresh = ShardedQueryEngine.build(base_rows + feed.ingested, encoder, n_shards=N_SHARDS,
                                     threshold=THRESHOLD, k=K, seed=spec.PROGRAM_SEED)
    served: list[Answer] = []
    expected: list[Answer] = []
    try:
        for lo in range(0, n_check, 1024):
            queries = stream[lo : min(lo + 1024, n_check)]
            served.extend(engine.query_batch(queries).matches())
            expected.extend(fresh.query_batch(queries).matches())
    finally:
        fresh.close()
    run.check(served == expected, "final bundle and a fresh build answer differently")
    # Global ids are positions in base + ingested order, which is A's own
    # order until the feed wraps; a true A row beyond that is not indexed.
    indexed = len(base_rows) + min(len(feed.ingested), len(feed.pool))
    put_pairs_completeness(run, engine, stream, stream_ids, truth_of_b, indexed)


# -- traced pass --------------------------------------------------------------------------


def _trace_shards(index: ShardedIndex, tracer: Tracer) -> None:
    """(Re-)install key tracing: compaction and open load fresh shards."""
    for state in index.shards:
        trace_keys(state.lsh, tracer)


def _staged_query(tracer: Tracer, index: ShardedIndex, rows: list[Row],
                  embed: dict[str, float], query: dict[str, float]) -> list[Answer]:
    """``ShardedQueryEngine.query_batch`` from its public parts."""
    tracer.next_op()
    with tracer.span("serve.sharded.query_batch"):
        matrix_b = staged.encode(tracer, index.encoder, rows, embed)
        parts = []
        with tracer.span("serve.sharded.fanout"):
            for state in index.shards:
                queries, local, distances = staged.batch_query(
                    tracer, state.lsh, state.words[: state.count], matrix_b,
                    index.threshold, query)
                parts.append((queries, np.asarray(state.row_ids[: state.count][local],
                                                  dtype=np.int64), distances))
        with tracer.span("serve.sharded.merge"):
            queries = np.concatenate([p[0] for p in parts])
            gids = np.concatenate([p[1] for p in parts])
            distances = np.concatenate([p[2] for p in parts])
            order = np.lexsort((gids, queries))
            result = QueryResult(queries[order], gids[order], distances[order], len(rows))
        with tracer.span("serve.engine.matches"):
            return result.matches()


def _traced_replay(run: Run, work: Path, engine: ShardedQueryEngine, feed: _Rows,
                   stream: list[Row]) -> None:
    """A shorter stretch of the same scenario, continued on the same
    bundle, with every layer call under a span."""
    tracer = Tracer()
    index = engine.index
    embed: dict[str, float] = {}
    query: dict[str, float] = {}
    real_s = staged_s = 0.0
    n_queries = 0
    _trace_shards(index, tracer)
    cycles = max(2, run.sizes["cycles"] // 8)
    for cycle in range(cycles):
        rows = feed.take(INGEST_ROWS)
        tracer.next_op()
        with tracer.span("core.shards.append"):
            feed.acked(rows, index.append_batch(rows))
        for j in range(2):
            lo = ((cycle * 2 + j) * QUERY_ROWS) % (STREAM - QUERY_ROWS)
            batch = stream[lo : lo + QUERY_ROWS]
            tracer.active = False
            started = time.perf_counter()
            expected = engine.query_batch(batch).matches()
            real_s += time.perf_counter() - started
            tracer.active = True
            started = time.perf_counter()
            got = _staged_query(tracer, index, batch, embed, query)
            staged_s += time.perf_counter() - started
            n_queries += len(batch)
            run.check(got == expected, "staged sharded query differs from the engine's")
    tracer.next_op()
    with tracer.span("core.shards.compact"):
        index.compact()
    run.put("core.shards.compact_bytes",
            sum(tree_bytes(index.path / state.dirname) for state in index.shards))
    for __ in range(-(-run.sizes["tail_rows"] // (4 * INGEST_ROWS))):
        rows = feed.take(INGEST_ROWS)
        tracer.next_op()
        with tracer.span("core.shards.append"):
            feed.acked(rows, index.append_batch(rows))
    index.close()
    tracer.next_op()
    with tracer.span("core.shards.open"):
        reopened = ShardedIndex.open(index.path)
    reopened.close()

    with SegmentWriter(work / "scratch.wal") as writer:
        for payload in feed.wal_payloads[:500]:
            tracer.next_op()
            with tracer.span("wal.append"):
                writer.append(payload, sync=True)

    staged.put_encode_metrics(run, tracer, embed, n_queries)
    staged.put_query_metrics(run, tracer, query, n_queries)
    run.put_median("core.shards.append_s", tracer.durations("core.shards.append"))
    run.put("core.shards.compact_s", tracer.total("core.shards.compact"))
    run.put("core.shards.open_s", tracer.total("core.shards.open"))
    run.put_median("wal.append_s", tracer.durations("wal.append"))
    run.put("trace.overhead_ratio", staged_s / real_s)
    run.notes["trace_self_time_gap"] = tracer.self_time_gap()
    tracer.write(run.out_dir / f"trace-{run.workload}.json",
                 {"workload": run.workload, "seed": run.seed})
