"""Workload ``serve-readonly``: one mmap snapshot, four ways of asking.

``QueryEngine.build`` -> ``save`` -> ``from_snapshot`` over NCVR PL, then
one seeded with-replacement query stream drawn from B, replayed from its
start by each phase:

``q1``     sequential ``query_batch([row])`` — per-call fixed cost.
``q1024``  ``query_batch`` of 1024 — amortised Hamming work.
``open``   Poisson open loop through in-process ``AsyncQueryServer.query``
           at four fixed rates — queueing and micro-batching.
``http``   ``POST /query`` through ``HttpFrontend`` on loopback from two
           closed-loop clients — parse and serialise.

``q1`` and ``q1024`` run in short alternating rounds, half of them before
``open`` and ``http`` and half after, so that each one's samples span the run.

Reads only: no ingest, no WAL, no shards, no compaction — those are
``serve-ingest-mixed``.  The same request prefix is answered by all four
phases and must be answered identically.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import loadgen
import spec
import staged
from harness import (
    Row,
    Run,
    Slice,
    make_problem,
    median,
    percentile,
    query_stream,
    scratch_dir,
    settle_heap,
    tree_bytes,
    windowed_p99,
)
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.core.persist import load_index_snapshot, save_index_snapshot
from repro.hamming.lsh import HammingLSH
from repro.serve import AsyncQueryServer, BatcherConfig, QueryEngine
from repro.serve.asyncserve import HttpFrontend
from repro.serve.engine import QueryResult
from tracing import Tracer, trace_keys

THRESHOLD = 4
K = 30
BATCHER = BatcherConfig(max_batch=256, max_wait_us=2000.0, queue_depth=8192)
#: Requests at the head of the stream that every phase must answer alike.
PREFIX = 2000
STREAM = 1 << 16
#: Requests encoded ahead for the HTTP phase (it sends ~5 000; then wraps).
HTTP_STREAM = 1 << 14
HTTP_CLIENTS = 2
#: Calls per p99 window: ten samples lie beyond a window's p99, and the
#: median over the windows moves only when the tail itself moved.
P99_WINDOW = 1000
#: Share of the run's measuring time per phase.  The open loop's reference
#: rate, which ``open_p99_ms`` reads, gets as long as the other three rates
#: together: its p99 needs the samples, theirs only feed the SLO ladder.
SHARE = {"q1": 0.22, "q1024": 0.10, "open": 0.50, "http": 0.18}
#: Rounds ``q1`` and ``q1024`` are made in: half before the async phases,
#: half after them.
ROUNDS = 6

#: Requests at the head of the stream ``pairs_completeness`` is scored over.
#: The checked prefix alone holds about 1 000 true pairs, and their share
#: found moved by 0.7% from seed to seed by the luck of the draw.
PC_QUERIES = 1 << 14

Answer = list[tuple[int, int]]


def calibrate(problem) -> RecordEncoder:  # noqa: ANN001
    """The encoder ``link()`` would fit on the same two datasets."""
    linker = CompactHammingLinker.record_level(threshold=THRESHOLD, k=K, seed=spec.PROGRAM_SEED)
    return linker.calibrate(problem.dataset_a, problem.dataset_b)


def put_pairs_completeness(run: Run, engine, stream: list[Row],  # noqa: ANN001
                           stream_ids: list[int], truth_of_b: dict[int, int],
                           indexed: int) -> None:
    """Share of the stream's true pairs the engine returns (untimed).  A
    true pair whose A row is not among the first ``indexed`` is not asked for."""
    found = total = 0
    for lo in range(0, PC_QUERIES, 1024):
        answers = engine.query_batch(stream[lo : lo + 1024]).matches()
        for b, answer in zip(stream_ids[lo : lo + 1024], answers):
            a = truth_of_b.get(b)
            if a is not None and a < indexed:
                total += 1
                found += any(rid == a for rid, __ in answer)
    run.put("pairs_completeness", found / total)


class TimedEngine:
    """A ``ServingEngine`` that forwards to the real one and notes when
    each batch started and ended (called from the server's engine thread)."""

    def __init__(self, engine: QueryEngine):
        self.engine = engine
        self.stats = engine.stats
        self.batch_time_hist = engine.batch_time_hist
        #: ``(start, end, rows)`` per executed batch, in execution order.
        self.batches: list[tuple[float, float, int]] = []

    @property
    def n_indexed(self) -> int:
        return self.engine.n_indexed

    @property
    def threshold(self) -> int:
        return self.engine.threshold

    def query_batch(self, rows: list[Row], threshold: int | None = None,
                    top_k: int | None = None) -> QueryResult:
        started = time.perf_counter()
        out = self.engine.query_batch(rows, threshold, top_k)
        self.batches.append((started, time.perf_counter(), len(rows)))
        return out


def run(run: Run) -> None:
    n = run.scaled(spec.NCVR_N, floor=500)
    prefix = min(PREFIX, max(64, n // 4))
    problem, generate_s = make_problem("ncvr", n, run.seed)
    run.put("data.generate_s", generate_s)
    rows_a = problem.dataset_a.value_rows()
    rows_b = problem.dataset_b.value_rows()
    truth_of_b = {b: a for a, b in problem.true_matches}
    encoder = calibrate(problem)
    stream_ids = query_stream(n, STREAM, run.seed + 1)
    stream = [rows_b[i] for i in stream_ids]
    requests = [loadgen.query_request(row) for row in stream[:HTTP_STREAM]]
    run.sizes.update(indexed=n, prefix=prefix, stream=STREAM)
    del problem, rows_b

    with scratch_dir(run.out_dir) as work:
        cycles: list[float] = []
        for i in range(3):
            started = time.perf_counter()
            built = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=spec.PROGRAM_SEED)
            built.save(work / f"bundle-{i}")
            engine = QueryEngine.from_snapshot(work / f"bundle-{i}")
            cycles.append(time.perf_counter() - started)
        del built
        if not run.trace:
            del rows_a
        settle_heap()
        run.mark_setup_done(cycles)

        engine.query_batch([stream[0]])  # page in the mapped bundle
        q1, q1024 = _Direct("q1", 1), _Direct("q1024", 1024)
        _direct_rounds(run, engine, stream, q1, q1024, prefix)
        served = asyncio.run(_phase_async(run, engine, stream, requests, prefix))
        _direct_rounds(run, engine, stream, q1, q1024, prefix)
        run.put_median("q1_p50_ms", q1.walls, 1e3)
        run.put("q1_p99_ms", windowed_p99(q1.walls, P99_WINDOW) * 1e3, n=len(q1.walls))
        run.put_rate("q1024_qps", 1024, q1024.walls)
        q1.put_engine_split(run)
        q1024.put_engine_split(run)

        reference = q1024.answers[:prefix]
        run.check(q1.answers[:prefix] == reference, "q1 and q1024 answer the prefix differently")
        for name, answers in served.items():
            # A request the open loop saw refused has no answer to compare.
            run.check(all(got is None or got == want for got, want in zip(answers, reference)),
                      f"{name} and q1024 answer the prefix differently")
        put_pairs_completeness(run, engine, stream, stream_ids, truth_of_b, n)

        if run.trace:
            _traced_replay(run, work, engine, encoder, rows_a, stream, reference,
                           median(q1.walls), median(q1024.walls))


# -- untraced phases ------------------------------------------------------------------


@dataclass
class _Direct:
    """Phase ``q1`` or ``q1024``: direct ``query_batch`` calls of one batch
    size, made in several rounds that all continue the same stream."""

    phase: str
    batch: int
    walls: list[float] = field(default_factory=list)
    #: Answers to the head of the stream, for the prefix check.
    answers: list[Answer] = field(default_factory=list)
    #: The engine's own ``time_embed_s`` / ``time_query_s`` over the rounds.
    embed_s: float = 0.0
    query_s: float = 0.0

    def round(self, engine: QueryEngine, stream: list[Row], seconds: float, min_ops: int,
              prefix: int) -> None:
        before = dict(engine.stats)
        budget = Slice(seconds, min_ops)
        while budget.more():
            lo = (len(self.walls) * self.batch) % STREAM
            rows = stream[lo : lo + self.batch]
            started = time.perf_counter()
            matches = engine.query_batch(rows).matches()
            self.walls.append(time.perf_counter() - started)
            if len(self.answers) < prefix:
                self.answers.extend(matches)
        self.embed_s += engine.stats["time_embed_s"] - before.get("time_embed_s", 0.0)
        self.query_s += engine.stats["time_query_s"] - before.get("time_query_s", 0.0)

    def put_engine_split(self, run: Run) -> None:
        """Per-call embed / query / rest, from the engine's own counters."""
        calls = len(self.walls)
        embed, query = self.embed_s / calls, self.query_s / calls
        run.ops(calls)
        run.put(f"serve.engine.{self.phase}.embed_ms", embed * 1e3)
        run.put(f"serve.engine.{self.phase}.query_ms", query * 1e3)
        run.put(f"serve.engine.{self.phase}.overhead_ms",
                (sum(self.walls) / calls - embed - query) * 1e3)


def _direct_rounds(run: Run, engine: QueryEngine, stream: list[Row], q1: _Direct,
                   q1024: _Direct, prefix: int) -> None:
    """Half of the rounds of ``q1`` and ``q1024``, turn and turn about.

    The host slows down for seconds at a time.  A phase measured in one
    window sits inside such a stretch or outside it; rounds on both sides
    of the async phases put its samples across the whole run, and the
    median passes over a stretch that covers less than half of them.
    """
    for __ in range(ROUNDS // 2):
        # The first round of each answers the whole checked prefix.
        q1.round(engine, stream, run.seconds * SHARE["q1"] / ROUNDS,
                 0 if q1.walls else prefix, prefix)
        q1024.round(engine, stream, run.seconds * SHARE["q1024"] / ROUNDS,
                    0 if q1024.walls else max(5, -(-prefix // 1024)), prefix)


def _open_seconds(run: Run, rate: int) -> float:
    others = len(spec.OPEN_RATES) - 1
    return run.seconds * SHARE["open"] / (2 if rate == spec.REFERENCE_RATE else 2 * others)


async def _open_rate(run: Run, engine, stream: list[Row], rate: int,  # noqa: ANN001
                     duration: float) -> tuple[loadgen.OpenLoopResult, dict[str, object]]:
    """One fixed rate against a fresh server; returns its stats too."""
    offsets = loadgen.poisson_schedule(rate, duration, run.seed + rate)
    async with AsyncQueryServer(engine, BATCHER) as server:
        result = await loadgen.open_loop(
            lambda i: server.query(stream[i % STREAM]), offsets, rate)
        return result, server.stats()


def _put_open_metrics(run: Run, results: dict[int, loadgen.OpenLoopResult],
                      stats: dict[str, object]) -> None:
    slo_rate = 0.0
    saturated = []
    run.notes["refused"] = {rate: r.n_refused for rate, r in results.items() if r.n_refused}
    for rate, result in results.items():
        run.ops(len(result.latency_s) - result.n_failed)
        run.fail(result.n_failed, f"open loop at {rate}/s: {result.errors[:2]}")
        run.put(f"asyncserve.open_r{rate}.p50_ms", result.p_ms(0.50), n=len(result.latency_s))
        run.put(f"asyncserve.open_r{rate}.p99_ms", result.p_ms(0.99), n=len(result.latency_s))
        run.put(f"asyncserve.open_r{rate}.achieved_qps", result.achieved_per_s)
        if result.generator_saturated:
            saturated.append(rate)
        if (result.p_ms(0.99) <= spec.SLO_P99_MS and result.n_failed + result.n_refused == 0
                and result.achieved_per_s >= 0.98 * result.offered_per_s):
            slo_rate = float(rate)
    reference = results[spec.REFERENCE_RATE]
    run.put("open_p99_ms", windowed_p99(reference.latency_s, P99_WINDOW) * 1e3,
            n=len(reference.latency_s))
    run.put("open_slo_rate_qps", slo_rate)
    run.put("loadgen.late_p99_ms", max(r.late_p99_ms for r in results.values()))
    run.notes["generator_saturated"] = saturated
    counters: dict[str, float] = stats["counters"]  # type: ignore[assignment]
    batches = counters.get("n_batches", 0.0)
    run.put("asyncserve.batcher.batch_size_mean", stats["batch_size"]["mean"])  # type: ignore[index]
    run.put("asyncserve.batcher.flush_timer_share",
            counters.get("n_flush_timer", 0.0) / batches if batches else 0.0)
    run.put("asyncserve.batcher.rejected", counters.get("n_rejected", 0.0))
    run.put("asyncserve.batcher.deadline_missed", counters.get("n_deadline_missed", 0.0))


async def _phase_async(run: Run, engine: QueryEngine, stream: list[Row],
                       requests: list[bytes], prefix: int) -> dict[str, list[Answer]]:
    """Phases ``open`` and ``http``; returns each one's prefix answers."""
    served: dict[str, list[Answer]] = {}
    results: dict[int, loadgen.OpenLoopResult] = {}
    reference_stats: dict[str, object] = {}
    for rate in spec.OPEN_RATES:
        # The slowest rate may not reach the prefix in its slice; the
        # rates that do are each checked against it.
        results[rate], stats = await _open_rate(run, engine, stream, rate,
                                                _open_seconds(run, rate))
        if rate == spec.REFERENCE_RATE:
            reference_stats = stats
        if len(results[rate].answers) >= prefix:
            served[f"open@{rate}"] = results[rate].answers[:prefix]  # type: ignore[assignment]
    _put_open_metrics(run, results, reference_stats)

    frontend = HttpFrontend(AsyncQueryServer(engine, BATCHER))
    host, port = await frontend.start()
    try:
        budget = Slice(run.seconds * SHARE["http"], min_ops=prefix)
        walls, answers, errors = await loadgen.closed_loop(
            lambda i: loadgen.http_query(host, port, requests[i % HTTP_STREAM]),
            HTTP_CLIENTS, budget)
    finally:
        await frontend.stop()
    run.ops(len(walls))
    run.fail(len(errors), f"http: {errors[:2]}")
    run.put_median("http_p50_ms", walls, 1e3)
    served["http"] = [answers.get(i) for i in range(prefix)]  # type: ignore[misc]
    return served


# -- traced pass ------------------------------------------------------------------------


def _traced_replay(run: Run, work, engine: QueryEngine, encoder: RecordEncoder,  # noqa: ANN001
                   rows_a: list[Row], stream: list[Row], reference: list[Answer],
                   q1_wall: float, q1024_wall: float) -> None:
    tracer = Tracer()
    embed: dict[str, float] = {}
    query: dict[str, float] = {}
    prefix = len(reference)

    # Build -> save -> load, staged: where set-up time goes.
    tracer.next_op()
    with tracer.span("serve.build"):
        matrix = staged.encode(tracer, encoder, rows_a, embed)
        lsh = HammingLSH(n_bits=encoder.total_bits, k=K, threshold=THRESHOLD,
                         seed=spec.PROGRAM_SEED)
        trace_keys(lsh, tracer)
        with tracer.span("hamming.lsh.index"):
            lsh.index(matrix)
        with tracer.span("core.persist.save"):
            bundle = save_index_snapshot(work / "traced", encoder, matrix, lsh,
                                         threshold=THRESHOLD)
        with tracer.span("core.persist.load"):
            snapshot = load_index_snapshot(bundle)
    trace_keys(snapshot.lsh, tracer)
    words = snapshot.matrix.words
    n_rows = len(rows_a)

    def call(rows: list[Row]) -> list[Answer]:
        tracer.next_op()
        with tracer.span("serve.engine.query_batch"):
            matrix_b = staged.encode(tracer, encoder, rows, embed)
            queries, ids, distances = staged.batch_query(
                tracer, snapshot.lsh, words, matrix_b, THRESHOLD, query)
            with tracer.span("serve.engine.matches"):
                return QueryResult(queries, ids, distances, len(rows)).matches()

    replayed: list[Answer] = []
    q1_started = time.perf_counter()
    for row in stream[:prefix]:
        replayed.extend(call([row]))
    q1_traced = time.perf_counter() - q1_started
    run.check(replayed == reference, "staged q1 replay answers differ from the engine's")
    n_bulk = max(5, -(-prefix // 1024))
    replayed = []
    q1024_started = time.perf_counter()
    for i in range(n_bulk):
        replayed.extend(call(stream[i * 1024 : (i + 1) * 1024]))
    q1024_traced = time.perf_counter() - q1024_started
    run.check(replayed[:prefix] == reference,
              "staged q1024 replay answers differ from the engine's")
    n_queries = prefix + sum(len(stream[i * 1024 : (i + 1) * 1024]) for i in range(n_bulk))

    staged.put_encode_metrics(run, tracer, embed, n_rows + n_queries)
    staged.put_query_metrics(run, tracer, query, n_queries)
    run.put("hamming.lsh.index_s", tracer.total("hamming.lsh.index"))
    run.put("core.persist.save_s", tracer.total("core.persist.save"))
    run.put("core.persist.load_s", tracer.total("core.persist.load"))
    run.put("core.persist.bundle_bytes_per_record", tree_bytes(bundle) / n_rows)
    run.put("trace.overhead_ratio",
            (q1_traced + q1024_traced) / (prefix * q1_wall + n_bulk * q1024_wall))

    asyncio.run(_traced_async(run, tracer, engine, stream))
    run.notes["trace_self_time_gap"] = tracer.self_time_gap()
    tracer.write(run.out_dir / f"trace-{run.workload}.json",
                 {"workload": run.workload, "seed": run.seed})


async def _traced_async(run: Run, tracer: Tracer, engine: QueryEngine,
                        stream: list[Row]) -> None:
    """The reference open-loop rate again, behind the timing proxy; then
    the HTTP phase's load without HTTP, to price the HTTP layer."""
    proxy = TimedEngine(engine)
    result, __ = await _open_rate(run, proxy, stream, spec.REFERENCE_RATE,
                                  _open_seconds(run, spec.OPEN_RATES[0]))
    for op, (started, ended, __) in enumerate(proxy.batches):
        tracer.add("asyncserve.server.execute", started, ended, op)
    executes = [ended - started for started, ended, __ in proxy.batches]
    run.put_median("asyncserve.server.execute_p50_ms", executes, 1e3)
    run.put("asyncserve.server.engine_busy_share", sum(executes) / result.elapsed_s)
    if result.n_failed + result.n_refused == 0:
        # Admission is FIFO and nothing was refused, so request k of the
        # schedule sits in the batch that covers position k.
        waits = []
        batches = iter(proxy.batches)
        started, __, left = next(batches)
        for due in result.due:
            while left == 0:
                started, __, left = next(batches)
            left -= 1
            waits.append(max(0.0, started - due))
        run.put_median("asyncserve.batcher.queue_wait_p50_ms", waits, 1e3)
        run.put("asyncserve.batcher.queue_wait_p99_ms", percentile(waits, 0.99) * 1e3,
                n=len(waits))
    else:
        run.notes["queue_wait"] = "not measured: a request was refused at the reference rate"

    async with AsyncQueryServer(engine, BATCHER) as server:
        budget = Slice(run.seconds * SHARE["http"] / 2, min_ops=200)
        walls, __, errors = await loadgen.closed_loop(
            lambda i: server.query(stream[i % STREAM]), HTTP_CLIENTS, budget)
    run.fail(len(errors), f"in-process closed loop: {errors[:2]}")
    run.put("asyncserve.http.overhead_p50_ms", run.value("http_p50_ms") - median(walls) * 1e3)
