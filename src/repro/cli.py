"""Command-line interface: generate, corrupt, size and link datasets.

The paper's evaluation workflow as shell commands::

    repro generate --family ncvr -n 10000 -o voters.csv
    repro corrupt voters.csv --scheme pl -a a.csv -b b.csv -t truth.csv
    repro sizing a.csv
    repro link a.csv b.csv --threshold 4 -o matches.csv --truth truth.csv
    repro link a.csv b.csv --rule "(FirstName<=4) & (LastName<=4)" \
         --k FirstName=5 --k LastName=5 -o matches.csv
    repro index build a.csv -o idx --threshold 4
    repro index build a.csv -o idx --threshold 4 --shards 4
    repro index query idx b.csv -o matches.csv --top-k 1
    repro index ingest idx more.csv
    repro index compact idx
    repro serve idx --port 8765 --max-batch 256 --max-wait-us 2000
    repro lint src/ --format json

Every command takes ``--seed`` and is fully reproducible; ``repro lint``
runs the reprolint static-analysis pass (see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.__main__ import build_parser as _build_lint_parser
from repro.analysis.__main__ import run_lint as _cmd_lint
from repro.core.linker import CompactHammingLinker
from repro.pipeline.registry import available_linkers
from repro.data.generators import DBLPGenerator, NCVRGenerator, average_qgram_counts
from repro.data.io import read_dataset, write_dataset, write_matches
from repro.data.perturb import scheme_ph, scheme_pl
from repro.data.schema import Dataset, dataset_from_rows
from repro.core.sizing import size_attribute
from repro.evaluation.metrics import evaluate_linkage
from repro.evaluation.reporting import emit, format_table
from repro.rules.parser import parse_rule


def _add_seed(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _linker_epilog() -> str:
    """The linkage-method catalogue, straight from the pipeline registry."""
    lines = ["linkage methods (repro.pipeline.registry):"]
    for spec in available_linkers():
        lines.append(f"  {spec.name:<20} {spec.summary}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Record linkage in a compact Hamming space (EDBT 2016 reproduction)",
        epilog=_linker_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic dataset CSV")
    generate.add_argument("--family", choices=("ncvr", "dblp"), default="ncvr")
    generate.add_argument("-n", type=int, default=10_000, help="number of records")
    generate.add_argument("-o", "--output", required=True, help="output CSV path")
    _add_seed(generate)

    corrupt = sub.add_parser(
        "corrupt", help="split a dataset into a linkage pair A/B with ground truth"
    )
    corrupt.add_argument("input", help="source CSV (header row required)")
    corrupt.add_argument("--scheme", choices=("pl", "ph"), default="pl")
    corrupt.add_argument("--match-prob", type=float, default=0.5)
    corrupt.add_argument("-a", "--output-a", required=True)
    corrupt.add_argument("-b", "--output-b", required=True)
    corrupt.add_argument("-t", "--truth", required=True, help="ground-truth pair CSV")
    _add_seed(corrupt)

    sizing = sub.add_parser(
        "sizing", help="report Theorem 1 c-vector sizes for a dataset (Table 3 style)"
    )
    sizing.add_argument("input", help="CSV to analyse")
    sizing.add_argument("--rho", type=float, default=1.0)
    sizing.add_argument("--r", type=float, default=1 / 3)

    link = sub.add_parser("link", help="link two CSV datasets with cBV-HB")
    link.add_argument("dataset_a")
    link.add_argument("dataset_b")
    link.add_argument("--threshold", type=int, help="record-level Hamming threshold")
    link.add_argument("--rule", help="classification rule, e.g. '(f1<=4) & (f2<=8)'")
    link.add_argument(
        "--k",
        action="append",
        default=[],
        metavar="ATTR=K or K",
        help="K (record-level) or repeated ATTR=K (rule-aware)",
    )
    link.add_argument("-o", "--output", required=True, help="matches CSV path")
    link.add_argument("--truth", help="ground-truth CSV to score against")
    link.add_argument("--delta", type=float, default=0.1)
    _add_seed(link)

    index = sub.add_parser(
        "index", help="build, query, ingest into and compact persistent index snapshots"
    )
    isub = index.add_subparsers(dest="index_command", required=True)

    build = isub.add_parser(
        "build", help="calibrate + index a reference CSV into a snapshot bundle"
    )
    build.add_argument("dataset", help="reference dataset CSV (dataset A)")
    build.add_argument("-o", "--output", required=True, help="bundle directory")
    build.add_argument("--threshold", type=int, required=True)
    build.add_argument("--k", type=int, default=30, help="sampled bits per group")
    build.add_argument("--delta", type=float, default=0.1)
    build.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="write a sharded bundle with N shards (durable ingest); "
        "0 (default) writes a plain single-index bundle",
    )
    _add_seed(build)

    query = isub.add_parser(
        "query", help="match a query CSV against a snapshot bundle"
    )
    query.add_argument("bundle", help="snapshot bundle directory")
    query.add_argument("dataset", help="query dataset CSV (dataset B)")
    query.add_argument("-o", "--output", required=True, help="matches CSV path")
    query.add_argument("--threshold", type=int, help="override the stored threshold")
    query.add_argument("--top-k", type=int, help="keep only the top-k closest matches")

    ingest = isub.add_parser(
        "ingest",
        help="durably append a CSV to a sharded bundle (write-ahead logged)",
    )
    ingest.add_argument("bundle", help="sharded bundle directory")
    ingest.add_argument("dataset", help="CSV of records to append")

    compact = isub.add_parser(
        "compact",
        help="fold a sharded bundle's ingest log into new shard snapshots",
    )
    compact.add_argument("bundle", help="sharded bundle directory")

    serve = sub.add_parser(
        "serve",
        help="serve a bundle (or CSV) over HTTP with adaptive micro-batching",
    )
    serve.add_argument(
        "source",
        help="snapshot/sharded bundle directory, or a CSV to index in memory",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 binds an ephemeral port")
    serve.add_argument(
        "--max-batch", type=int, default=256, help="flush when this many requests queue"
    )
    serve.add_argument(
        "--max-wait-us",
        type=float,
        default=2000.0,
        metavar="US",
        help="adaptive flush-window ceiling in microseconds (default 2000)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="default per-request queueing deadline (default: none)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=4096,
        help="bounded admission queue; beyond it requests get 503 + Retry-After",
    )
    serve.add_argument(
        "--threshold", type=int, help="matching threshold (required for CSV input)"
    )
    serve.add_argument("--k", type=int, default=30, help="CSV input: sampled bits per group")
    serve.add_argument("--delta", type=float, default=0.1)
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="CSV input: index in memory as N shards (0: one plain index)",
    )
    serve.add_argument(
        "--limit-requests",
        type=int,
        default=None,
        metavar="N",
        help="exit after answering N requests (deterministic runs, tests)",
    )
    _add_seed(serve)

    lint = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis pass (repo-specific rules)",
    )
    _build_lint_parser(lint)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    generator = NCVRGenerator() if args.family == "ncvr" else DBLPGenerator()
    dataset = generator.generate(args.n, seed=args.seed)
    write_dataset(dataset, args.output)
    emit(f"wrote {len(dataset)} {args.family} records to {args.output}")
    return 0


def _cmd_corrupt(args: argparse.Namespace) -> int:
    import csv

    import numpy as np

    source = _read_dataset(args.input)
    scheme = scheme_pl() if args.scheme == "pl" else scheme_ph()
    rng = np.random.default_rng(args.seed)

    # Split the source pool so B's filler records never duplicate an A
    # record: the first half becomes A, the second half feeds the filler.
    order = rng.permutation(len(source))
    half = len(source) // 2
    rows = source.value_rows()
    rows_a = [rows[int(row)] for row in order[:half]]
    filler_rows = list(order[half:])
    dataset_a = dataset_from_rows(source.schema, rows_a, "A", name="A")

    rows_b: list[tuple[str, ...]] = []
    truth: list[tuple[str, str]] = []
    for row_a, values in enumerate(rows_a):
        if rng.random() < args.match_prob:
            perturbed, __ = scheme.perturb(values, source.schema, rng)
            truth.append((f"A{row_a}", f"B{len(rows_b)}"))
            rows_b.append(perturbed)
    while len(rows_b) < len(rows_a) and filler_rows:
        rows_b.append(rows[int(filler_rows.pop())])
    dataset_b = dataset_from_rows(source.schema, rows_b, "B", name="B")

    write_dataset(dataset_a, args.output_a)
    write_dataset(dataset_b, args.output_b)
    with open(args.truth, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id_a", "id_b"])
        writer.writerows(sorted(truth))
    emit(
        f"wrote A ({len(dataset_a)}) -> {args.output_a}, "
        f"B ({len(dataset_b)}) -> {args.output_b}, "
        f"{len(truth)} true pairs -> {args.truth}"
    )
    return 0


def _cmd_sizing(args: argparse.Namespace) -> int:
    dataset = _read_dataset(args.input)
    counts = average_qgram_counts(dataset)
    rows = []
    total = 0
    for name, b in counts.items():
        report = size_attribute(b, rho=args.rho, r=args.r)
        total += report.m_opt
        rows.append(
            [name, round(b, 1), report.m_opt, round(report.expected_collisions, 2)]
        )
    emit(format_table(["attribute", "b", "m_opt", "E[collisions]"], rows))
    emit(f"record-level size: {total} bits")
    return 0


def _parse_k(entries: list[str]) -> int | dict[str, int]:
    if not entries:
        return 30
    if len(entries) == 1 and "=" not in entries[0]:
        return int(entries[0])
    out = {}
    for entry in entries:
        if "=" not in entry:
            raise SystemExit(f"--k {entry!r}: expected ATTR=K with a rule")
        attr, __, value = entry.partition("=")
        out[attr] = int(value)
    return out


def _read_dataset(path: str) -> Dataset:
    """``read_dataset``, with a malformed file reported in one line."""
    try:
        return read_dataset(path)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc


def _read_truth(path: str, dataset_a: Dataset, dataset_b: Dataset) -> set[tuple[int, int]]:
    import csv

    truth = set()
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            truth.add(
                (dataset_a.index_of(row["id_a"]), dataset_b.index_of(row["id_b"]))
            )
    return truth


def _cmd_link(args: argparse.Namespace) -> int:
    if (args.threshold is None) == (args.rule is None):
        raise SystemExit("specify exactly one of --threshold or --rule")
    dataset_a = _read_dataset(args.dataset_a)
    dataset_b = _read_dataset(args.dataset_b)
    if dataset_a.schema.names != dataset_b.schema.names:
        raise SystemExit(
            f"schema mismatch: {dataset_a.schema.names} vs {dataset_b.schema.names}"
        )
    k = _parse_k(args.k)
    if args.rule is not None:
        if not isinstance(k, dict):
            raise SystemExit("rule-aware linkage needs repeated --k ATTR=K options")
        linker = CompactHammingLinker.rule_aware(
            parse_rule(args.rule),
            k=k,
            delta=args.delta,
            attribute_names=list(dataset_a.schema.names),
            seed=args.seed,
        )
    else:
        if not isinstance(k, int):
            raise SystemExit("record-level linkage takes a single --k value")
        linker = CompactHammingLinker.record_level(
            threshold=args.threshold, k=k, delta=args.delta, seed=args.seed
        )

    result = linker.link(dataset_a, dataset_b)
    n_written = write_matches(result.matches, dataset_a, dataset_b, args.output)
    summary = result.summary()
    emit(
        f"linked {len(dataset_a)} x {len(dataset_b)} records in "
        f"{summary['total_time_s']:.2f} s; {n_written} matches -> {args.output}"
    )
    emit(
        format_table(
            ["metric", "value"],
            [
                [name, value if isinstance(value, int) else f"{value:.4f}"]
                for name, value in summary.items()
            ],
        )
    )
    if args.truth:
        truth = _read_truth(args.truth, dataset_a, dataset_b)
        quality = evaluate_linkage(
            result.matches, truth, result.n_candidates,
            len(dataset_a) * len(dataset_b),
        )
        emit(
            f"PC = {quality.pairs_completeness:.4f}  "
            f"PQ = {quality.pairs_quality:.4f}  "
            f"RR = {quality.reduction_ratio:.4f}  "
            f"precision = {quality.precision:.4f}"
        )
    return 0


def _build_engine(args: argparse.Namespace, dataset: Dataset):
    """Calibrate on ``dataset`` and index it in memory (``--shards 0``: plain)."""
    from repro.protocol import value_rows
    from repro.serve import QueryEngine

    linker = CompactHammingLinker.record_level(
        threshold=args.threshold, k=args.k, delta=args.delta, seed=args.seed
    )
    return QueryEngine.build(
        list(value_rows(dataset)),
        linker.calibrate(dataset),
        threshold=args.threshold,
        k=args.k,
        delta=args.delta,
        seed=args.seed,
        n_shards=args.shards or None,
    )


def _cmd_index_build(args: argparse.Namespace) -> int:
    import time

    dataset = _read_dataset(args.dataset)
    started = time.perf_counter()
    engine = _build_engine(args, dataset)
    bundle = engine.save(args.output)
    elapsed = time.perf_counter() - started
    index = engine.index
    layout = f"{args.shards} shards" if args.shards else "plain bundle"
    emit(
        f"indexed {engine.n_indexed} records ({index.n_bits} bits, "
        f"{index.lsh.n_tables} tables, {layout}) in {elapsed:.2f} s -> {bundle}"
    )
    return 0


def _cmd_index_query(args: argparse.Namespace) -> int:
    import csv

    from repro.protocol import value_rows
    from repro.serve import QueryEngine

    dataset = _read_dataset(args.dataset)
    engine = QueryEngine.from_bundle(args.bundle)
    result = engine.query_batch(
        list(value_rows(dataset)), threshold=args.threshold, top_k=args.top_k
    )
    with open(args.output, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id_query", "row_index", "distance"])
        for query, rid, dist in zip(result.queries, result.ids, result.distances):
            writer.writerow([dataset.ids[int(query)], int(rid), int(dist)])
    emit(
        f"matched {len(dataset)} queries against {engine.n_indexed} indexed "
        f"records; {result.n_matches} matches -> {args.output}"
    )
    return 0


def _cmd_index_ingest(args: argparse.Namespace) -> int:
    import time

    from repro.core.shards import PlainBundleError
    from repro.protocol import value_rows
    from repro.serve import QueryEngine

    dataset = _read_dataset(args.dataset)
    engine = QueryEngine.from_bundle(args.bundle)
    started = time.perf_counter()
    try:
        gids = engine.ingest(list(value_rows(dataset)))
    except PlainBundleError as exc:
        raise SystemExit(str(exc)) from exc
    finally:
        engine.close()
    elapsed = time.perf_counter() - started
    first = f", ids {gids[0]}..{gids[-1]}" if gids else ""
    emit(
        f"ingested {len(gids)} records into {args.bundle} in {elapsed:.2f} s "
        f"(write-ahead logged, fsync'd{first}); run 'repro index compact' to "
        "fold the log into shard snapshots"
    )
    return 0


def _cmd_index_compact(args: argparse.Namespace) -> int:
    import time

    from repro.core.shards import PlainBundleError
    from repro.serve import QueryEngine

    engine = QueryEngine.from_bundle(args.bundle)
    replayed = int(engine.index.counters.get("wal_replayed_records", 0.0))
    started = time.perf_counter()
    try:
        version = engine.compact()
    except PlainBundleError as exc:
        raise SystemExit(str(exc)) from exc
    finally:
        engine.close()
    elapsed = time.perf_counter() - started
    emit(
        f"compacted {args.bundle} to version {version} in {elapsed:.2f} s "
        f"({replayed} write-ahead records folded into {engine.n_shards} shards)"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from repro.serve import AsyncQueryServer, BatcherConfig
    from repro.serve.asyncserve import serve_http

    config = BatcherConfig(
        max_batch=args.max_batch,
        max_wait_us=args.max_wait_us,
        deadline_ms=args.deadline_ms,
        queue_depth=args.queue_depth,
    )
    if Path(args.source).is_dir():
        server = AsyncQueryServer.from_bundle(args.source, config=config)
    else:
        if args.threshold is None:
            raise SystemExit(
                f"{args.source} is not a bundle directory; serving a CSV "
                "needs --threshold"
            )
        server = AsyncQueryServer(_build_engine(args, _read_dataset(args.source)), config=config)

    async def run() -> dict:
        frontend = await serve_http(
            server,
            host=args.host,
            port=args.port,
            limit_requests=args.limit_requests,
        )
        emit(
            f"serving {server.engine.n_indexed} records on "
            f"http://{frontend.host}:{frontend.port} "
            f"(max-batch {config.max_batch}, max-wait {config.max_wait_us:.0f} us, "
            f"queue depth {config.queue_depth}) — "
            "GET /healthz /stats, POST /query /swap"
        )
        try:
            await frontend.serve_until_done()
        finally:
            stats = server.stats()
            await frontend.stop()
        return stats

    try:
        stats = asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    counters = stats["counters"]
    latency = stats["latency_s"]
    emit(
        f"served {counters.get('n_completed', 0):.0f} requests in "
        f"{counters.get('n_batches', 0):.0f} batches "
        f"(mean size {stats['batch_size']['mean']:.1f}); "
        f"latency p50 {latency['p50'] * 1e3:.2f} ms, "
        f"p95 {latency['p95'] * 1e3:.2f} ms, p99 {latency['p99'] * 1e3:.2f} ms; "
        f"rejected {counters.get('n_rejected', 0):.0f}, "
        f"deadline misses {counters.get('n_deadline_missed', 0):.0f}"
    )
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    handler = {
        "build": _cmd_index_build,
        "query": _cmd_index_query,
        "ingest": _cmd_index_ingest,
        "compact": _cmd_index_compact,
    }[args.index_command]
    return handler(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "corrupt": _cmd_corrupt,
    "sizing": _cmd_sizing,
    "link": _cmd_link,
    "index": _cmd_index,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
