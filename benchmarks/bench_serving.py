"""Snapshot serving benchmark: build-once amortisation + query throughput.

Times the serving story of ``repro.serve`` on the NCVR PL cell at
``REPRO_BENCH_SCALE`` and writes ``BENCH_serving.json`` at the repo root:

* **build vs load** — indexing the reference dataset from scratch
  (embed + index) against attaching the persisted snapshot bundle
  zero-copy (``numpy.load(..., mmap_mode="r")``).  The ratio is the
  amortisation argument for persisting at all.
* **query throughput** — QPS and p50/p95/p99 per-call latency of
  ``QueryEngine.query_batch`` for batch sizes {1, 64, 1024}; batching
  must beat the per-call overhead of single-record querying by a wide
  margin.
* **invariance** — the full query stream answered by the mmap engine and
  by a freshly rebuilt in-memory engine must be byte-identical (same
  ``(query, id, distance)`` arrays).
* **sharded bundles** — the full stream served from a persisted sharded
  bundle at ``n_shards`` in {1, 4}; every cell must be byte-identical to
  the plain-bundle reference (the shard merge is deterministic by
  construction).
* **ingest + replay** — online appends into the sharded bundle's WAL,
  the replay cost a fresh open pays before compaction, and the
  compaction that folds the log back to zero-replay opens.  The same
  bundle answers batch-1024 calls with the un-compacted overlay present
  and again after ``compact()``: the overlay rows sit in each blocking
  group's delta run and go through the same sort-merge join, so the two
  rates must stay within a factor of two.

* **small embed** — every row of the query stream embedded alone by
  ``RecordEncoder.encode_dataset`` (value by value, through the encoder's
  value memo) and by ``embed_columns`` (the batched kernel), back to back;
  the words must be identical.

``--check`` exits non-zero when batching fails to reach 5x the batch-1
QPS, when any configuration (including every sharded cell) disagrees,
when batch-1024 QPS against the overlay drops below 0.5x the compacted
bundle's, when the 1-row ``encode_dataset`` p50 is above 0.6x the
``embed_columns`` one, or — at full scale — when the cold load is not at
least 10x faster than rebuilding (the CI serving-smoke gate runs
``--check --tiny``, which skips the load-ratio gate: at smoke scale both
sides are timer noise; the overlay and small-embed gates are ratios of
two readings taken moments apart in one process, and hold at any scale).
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import scaled

from repro.core.cvector import embed_columns
from repro.core.linker import CompactHammingLinker
from repro.core.persist import load_index_snapshot
from repro.core.qgram import clear_index_set_cache
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.evaluation.reporting import banner, format_table
from repro.hamming.lsh import HammingLSH
from repro.serve import QueryEngine

#: Serving amortisation is a scale story — the reference side of a
#: deployment is large, so this benchmark defaults to 10x the linkage
#: benchmarks' problem size (still seconds end-to-end).
BASE_N = 20000
TINY_N = 300
SEED = 7
THRESHOLD = 4
K = 30
BATCH_SIZES = (1, 64, 1024)
SHARDS = (1, 4)
OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

#: Gates (see module docstring).
MIN_BATCH_SPEEDUP = 5.0
MIN_LOAD_SPEEDUP = 10.0
MIN_OVERLAY_RATIO = 0.5
MAX_SMALL_EMBED_RATIO = 0.6


def _percentiles(samples):
    values = np.asarray(samples, dtype=np.float64)
    return {
        "p50_ms": float(np.percentile(values, 50) * 1e3),
        "p95_ms": float(np.percentile(values, 95) * 1e3),
        "p99_ms": float(np.percentile(values, 99) * 1e3),
    }


def _time_rebuild(rows_a, encoder, repeats):
    """Best-of-N *cold* rebuild: embed dataset A and index it from scratch.

    The q-gram cache is cleared per repetition — a process that has to
    rebuild its index has not embedded these strings before, and that is
    the cost the snapshot load replaces.
    """
    best = float("inf")
    for __ in range(repeats):
        clear_index_set_cache()
        start = time.perf_counter()
        matrix = encoder.encode_dataset(rows_a)
        lsh = HammingLSH(
            n_bits=encoder.total_bits, k=K, threshold=THRESHOLD, seed=SEED
        )
        lsh.index(matrix)
        best = min(best, time.perf_counter() - start)
    return best


def _time_load(bundle, repeats):
    """Best-of-N cold attach of the snapshot bundle (mmap, zero-copy)."""
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        load_index_snapshot(bundle)
        best = min(best, time.perf_counter() - start)
    return best


def _batches(rows, batch_size, n_calls):
    """Deterministic query batches cycled from the query stream."""
    out = []
    cursor = 0
    for __ in range(n_calls):
        batch = [rows[(cursor + i) % len(rows)] for i in range(batch_size)]
        out.append(batch)
        cursor = (cursor + batch_size) % len(rows)
    return out


def _measure_throughput(engine, rows, batch_size, n_calls):
    """Per-call latencies + aggregate QPS for one (engine, batch) cell."""
    batches = _batches(rows, batch_size, n_calls)
    engine.query_batch(batches[0])  # warm up (page cache)
    samples = []
    total_queries = 0
    started = time.perf_counter()
    for batch in batches:
        call_start = time.perf_counter()
        engine.query_batch(batch)
        samples.append(time.perf_counter() - call_start)
        total_queries += len(batch)
    elapsed = time.perf_counter() - started
    cell = {
        "batch_size": batch_size,
        "n_calls": n_calls,
        "qps": total_queries / elapsed if elapsed > 0 else float("inf"),
        **_percentiles(samples),
    }
    return cell


def _result_arrays(engine, rows):
    result = engine.query_batch(rows)
    return result.queries, result.ids, result.distances


def _identical(left, right):
    return all(np.array_equal(a, b) for a, b in zip(left, right))


def _measure_sharded(tmp, rows_a, rows_b, encoder, reference, repeats):
    """Serving a sharded bundle at each shard count, with byte parity cells."""
    cells = []
    identical = {}
    for n_shards in SHARDS:
        built = QueryEngine.build(
            rows_a, encoder, n_shards=n_shards, threshold=THRESHOLD, k=K, seed=SEED
        )
        bundle = built.save(f"{tmp}/sharded{n_shards}")
        built.close()
        engine = QueryEngine.from_bundle(bundle)
        best = float("inf")
        result = None
        for __ in range(repeats):
            start = time.perf_counter()
            result = engine.query_batch(rows_b)
            best = min(best, time.perf_counter() - start)
        arrays = (result.queries, result.ids, result.distances)
        identical[f"sharded{n_shards}"] = _identical(reference, arrays)
        batches = engine.stats.get("n_batches", 1.0)
        cells.append(
            {
                "n_shards": n_shards,
                "full_stream_s": best,
                "qps": len(rows_b) / best if best > 0 else float("inf"),
                "fanout_s_per_batch": engine.stats.get("time_fanout_s", 0.0) / batches,
                "merge_s_per_batch": engine.stats.get("time_merge_s", 0.0) / batches,
            }
        )
        engine.close()
    return cells, identical


def _measure_small_embed(encoder, rows, n_calls):
    """1-row ``encode_dataset`` p50 against ``embed_columns`` on the same rows.

    Each row is embedded both ways back to back, the order alternating,
    so both readings see the same minute of the host.
    """
    offsets = [layout.offset for layout in encoder.layouts]
    samples = {"encode_dataset": [], "embed_columns": []}
    same = True
    for i in range(n_calls):
        row = rows[i % len(rows)]
        columns = [[value] for value in row]
        ways = [
            ("encode_dataset", lambda: encoder.encode_dataset([row])),
            (
                "embed_columns",
                lambda: embed_columns(encoder.encoders, offsets, columns, encoder.total_bits)[0],
            ),
        ]
        words = {}
        for name, embed in ways if i % 2 else ways[::-1]:
            started = time.perf_counter()
            words[name] = embed().words
            samples[name].append(time.perf_counter() - started)
        same = same and np.array_equal(words["encode_dataset"], words["embed_columns"])
    small, batched = (_percentiles(samples[name])["p50_ms"] for name in samples)
    cell = {
        "n_calls": n_calls,
        "encode_dataset_q1_p50_ms": small,
        "embed_columns_q1_p50_ms": batched,
        "small_vs_columns": small / batched,
    }
    return cell, {"small_embed": same}


def _median_qps(engine, rows, batch_size, n_calls):
    """``batch_size`` / median call wall: a rate one slow call cannot move."""
    cell = _measure_throughput(engine, rows, batch_size, n_calls)
    return batch_size / (cell["p50_ms"] / 1e3)


def _measure_ingest_replay(tmp, rows_a, rows_b, encoder, n_ingest, n_calls):
    """Durable ingest cost: WAL append, replay-on-open, and compaction.

    Also the overlay-vs-compacted cell: batch-1024 QPS on the replayed
    bundle (every ingested row in a delta run) and on the same bundle
    after ``compact()``.
    """
    base, extra = rows_a[:-n_ingest], rows_a[-n_ingest:]
    built = QueryEngine.build(
        base, encoder, n_shards=SHARDS[-1], threshold=THRESHOLD, k=K, seed=SEED
    )
    bundle = built.save(f"{tmp}/ingest")

    start = time.perf_counter()
    built.ingest(extra)
    ingest_s = time.perf_counter() - start
    built.close()

    start = time.perf_counter()
    replaying = QueryEngine.from_bundle(bundle)
    replay_open_s = time.perf_counter() - start
    replayed = replaying.index.counters["wal_replayed_records"]
    after_ingest = _result_arrays(replaying, rows_b)
    overlay_qps = _median_qps(replaying, rows_b, BATCH_SIZES[-1], n_calls)

    start = time.perf_counter()
    replaying.compact()
    compact_s = time.perf_counter() - start
    after_compact = _result_arrays(replaying, rows_b)
    compacted_qps = _median_qps(replaying, rows_b, BATCH_SIZES[-1], n_calls)
    replaying.close()

    start = time.perf_counter()
    compacted = QueryEngine.from_bundle(bundle)
    clean_open_s = time.perf_counter() - start
    compacted.close()

    full = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
    rebuilt = _result_arrays(full, rows_b)
    return {
        "n_shards": SHARDS[-1],
        "n_ingested": n_ingest,
        "ingest_s": ingest_s,
        "replay_open_s": replay_open_s,
        "wal_replayed_records": replayed,
        "compact_s": compact_s,
        "clean_open_s": clean_open_s,
        "overlay_q1024_qps": overlay_qps,
        "compacted_q1024_qps": compacted_qps,
        "overlay_vs_compacted": overlay_qps / compacted_qps,
    }, {
        "ingest_replay": _identical(rebuilt, after_ingest),
        "ingest_compacted": _identical(rebuilt, after_compact),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when a serving gate fails (CI serving-smoke)",
    )
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke scale: small problem, few repeats, no load-ratio gate",
    )
    args = parser.parse_args(argv)

    n = TINY_N if args.tiny else scaled(BASE_N)
    repeats = 3
    calls_per_batch = {1: 30, 64: 8, 1024: 3} if args.tiny else {1: 200, 64: 30, 1024: 5}

    prob = build_linkage_problem(NCVRGenerator(), n, scheme_pl(), seed=SEED)
    rows_a = [tuple(r) for r in prob.dataset_a.value_rows()]
    rows_b = [tuple(r) for r in prob.dataset_b.value_rows()]

    linker = CompactHammingLinker.record_level(threshold=THRESHOLD, k=K, seed=SEED)
    encoder = linker.calibrate(prob.dataset_a, prob.dataset_b)

    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        memory_engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )
        start = time.perf_counter()
        bundle = memory_engine.save(tmp + "/idx")
        save_s = time.perf_counter() - start

        rebuild_s = _time_rebuild(rows_a, encoder, repeats)
        load_s = _time_load(bundle, repeats)
        load_speedup = rebuild_s / load_s if load_s > 0 else float("inf")

        engine = QueryEngine.from_snapshot(bundle)
        throughput = [
            _measure_throughput(engine, rows_b, batch_size, calls_per_batch[batch_size])
            for batch_size in BATCH_SIZES
        ]

        reference = _result_arrays(memory_engine, rows_b)
        identical = {"mmap": _identical(reference, _result_arrays(engine, rows_b))}

        sharded_cells, sharded_identical = _measure_sharded(
            tmp, rows_a, rows_b, encoder, reference, repeats
        )
        identical.update(sharded_identical)

        n_ingest = max(10, n // 100)
        ingest_cell, ingest_identical = _measure_ingest_replay(
            tmp, rows_a, rows_b, encoder, n_ingest, 3 * calls_per_batch[1024]
        )
        identical.update(ingest_identical)

        small_embed_cell, small_embed_identical = _measure_small_embed(
            engine.index.encoder, rows_b, 10 * calls_per_batch[1]
        )
        identical.update(small_embed_identical)

    qps = {cell["batch_size"]: cell["qps"] for cell in throughput}
    batch_speedup = qps[1024] / qps[1] if qps[1] > 0 else float("inf")
    all_identical = all(identical.values())

    payload = {
        "benchmark": "serving",
        "dataset": "ncvr-pl",
        "n_records_per_side": n,
        "threshold": THRESHOLD,
        "k": K,
        "seed": SEED,
        "tiny": bool(args.tiny),
        "build": {
            "rebuild_s": rebuild_s,
            "save_s": save_s,
            "cold_load_s": load_s,
            "load_speedup_vs_rebuild": load_speedup,
        },
        "throughput": throughput,
        "batch_1024_vs_1_qps_speedup": batch_speedup,
        "sharded": sharded_cells,
        "ingest_replay": ingest_cell,
        "small_embed": small_embed_cell,
        "results_identical": identical,
        "gates": {
            "min_batch_speedup": MIN_BATCH_SPEEDUP,
            "min_load_speedup": MIN_LOAD_SPEEDUP if not args.tiny else None,
            "min_overlay_ratio": MIN_OVERLAY_RATIO,
            "max_small_embed_ratio": MAX_SMALL_EMBED_RATIO,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(banner(f"snapshot serving @ n={n} per side"))
    print(
        f"rebuild {rebuild_s * 1e3:.1f} ms vs cold load {load_s * 1e3:.1f} ms "
        f"({load_speedup:.1f}x)"
    )
    rows = [
        [
            cell["batch_size"],
            f"{cell['qps']:.0f}",
            f"{cell['p50_ms']:.2f}",
            f"{cell['p95_ms']:.2f}",
            f"{cell['p99_ms']:.2f}",
        ]
        for cell in throughput
    ]
    print(format_table(["batch", "QPS", "p50_ms", "p95_ms", "p99_ms"], rows))
    print(f"batch-1024 vs batch-1 QPS: {batch_speedup:.1f}x")
    shard_rows = [
        [
            cell["n_shards"],
            f"{cell['qps']:.0f}",
            f"{cell['fanout_s_per_batch'] * 1e3:.2f}",
            f"{cell['merge_s_per_batch'] * 1e3:.2f}",
        ]
        for cell in sharded_cells
    ]
    print(
        format_table(
            ["n_shards", "QPS", "fanout_ms/batch", "merge_ms/batch"], shard_rows
        )
    )
    print(
        f"ingest {ingest_cell['n_ingested']} records: "
        f"{ingest_cell['ingest_s'] * 1e3:.1f} ms WAL append, "
        f"{ingest_cell['replay_open_s'] * 1e3:.1f} ms replay-open "
        f"({ingest_cell['wal_replayed_records']:.0f} records), "
        f"{ingest_cell['compact_s'] * 1e3:.1f} ms compaction, "
        f"{ingest_cell['clean_open_s'] * 1e3:.1f} ms clean open"
    )
    print(
        f"batch-1024 with the overlay present: {ingest_cell['overlay_q1024_qps']:.0f} QPS "
        f"vs {ingest_cell['compacted_q1024_qps']:.0f} QPS after compact() "
        f"({ingest_cell['overlay_vs_compacted']:.2f}x)"
    )
    print(
        f"1-row embed p50: {small_embed_cell['encode_dataset_q1_p50_ms']:.3f} ms value by value "
        f"vs {small_embed_cell['embed_columns_q1_p50_ms']:.3f} ms embed_columns "
        f"({small_embed_cell['small_vs_columns']:.2f}x)"
    )
    print(f"results identical across configurations: {all_identical}")
    print(f"wrote {OUTPUT}")

    if args.check:
        if not all_identical:
            print(
                f"CHECK FAILED: results differ across configurations: {identical}",
                file=sys.stderr,
            )
            return 1
        if batch_speedup < MIN_BATCH_SPEEDUP:
            print(
                f"CHECK FAILED: batch-1024 QPS only {batch_speedup:.1f}x batch-1 "
                f"(need >= {MIN_BATCH_SPEEDUP}x)",
                file=sys.stderr,
            )
            return 1
        if ingest_cell["overlay_vs_compacted"] < MIN_OVERLAY_RATIO:
            print(
                f"CHECK FAILED: batch-1024 QPS with an un-compacted overlay is only "
                f"{ingest_cell['overlay_vs_compacted']:.2f}x the compacted bundle's "
                f"(need >= {MIN_OVERLAY_RATIO}x)",
                file=sys.stderr,
            )
            return 1
        if small_embed_cell["small_vs_columns"] > MAX_SMALL_EMBED_RATIO:
            print(
                f"CHECK FAILED: 1-row encode_dataset p50 is "
                f"{small_embed_cell['small_vs_columns']:.2f}x embed_columns' "
                f"(need <= {MAX_SMALL_EMBED_RATIO}x)",
                file=sys.stderr,
            )
            return 1
        if not args.tiny and load_speedup < MIN_LOAD_SPEEDUP:
            print(
                f"CHECK FAILED: cold load only {load_speedup:.1f}x faster than "
                f"rebuild (need >= {MIN_LOAD_SPEEDUP}x)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
