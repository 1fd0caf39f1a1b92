"""What the suite measures: workloads, sizes and every metric by name.

Two tables of end-to-end metrics live here.

``END_TO_END`` is the suite's own: the sizing issue's fifteen names (plus
``link_small_p50_ms``, see below), each with the workloads that define it
and the bound ``compare.py`` applies.  ``run.py`` prints them and every
result file carries them; they are what a change is judged on.

``DRIVER`` is what ``BENCHMARK.json`` lists under ``end_to_end``.  The
driver's contract reads "with ``--trace 0`` the metrics are every
``end_to_end`` metric" and "choose metrics that are never 0", and an entry
has exactly the keys ``name``, ``unit``, ``better``, ``bound`` — no
per-metric workload list.  A metric only one workload has cannot be listed
there, so the driver bounds five quantities all four workloads have.  Two
of them are *roles*: on each workload the role is an alias of one suite
metric (``DRIVER[...].source``), never a number of its own.  The suite
metrics that no role covers are reported with ``--trace 1`` (the driver
records them without a bound) and are bounded by ``compare.py``.

``BENCHMARK.json`` must equal :func:`benchmark_json`; ``run.py --selftest``
fails when the two drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Records per side at ``--scale 1``.  The sizing issue asked for 200 000 /
#: 10 000; the driver's cap (92 runs in 3420 s: about 37 s a run, set-up
#: included) halves both, uniformly.
NCVR_N = 100_000
DBLP_N = 5_000

#: Seed of the program's own random draws (attribute hash functions, LSH
#: bit positions).  ``--seed`` makes the inputs; these draws are
#: configuration and stay put.
PROGRAM_SEED = 7

#: Seconds one run measures (``run_seconds`` in BENCHMARK.json).
RUN_SECONDS = 20

WORKLOADS: dict[str, str] = {
    "link-ncvr-pl": (
        "record-level link() on narrow NCVR PL vectors, 100000 records a side: "
        "embed-dominated batch linkage, the paper's headline configuration"
    ),
    "link-dblp-ph": (
        "rule-aware link() on wide DBLP PH vectors, 5000 a side: match stage is "
        "~95% of the wall, embed under 5%; the opposite layer mix of link-ncvr-pl"
    ),
    "serve-readonly": (
        "reads only against a 100000-record mmap snapshot: batch-1, batch-1024, "
        "Poisson open loop and HTTP; fixed cost, amortised work and queueing"
    ),
    "serve-ingest-mixed": (
        "durable ingest beside reads on 4 shards with WAL: overlay cliff, "
        "compaction stall and replay-on-open, which serve-readonly never enters"
    ),
}

LINK_WORKLOADS = ("link-ncvr-pl", "link-dblp-ph")
ALL = tuple(WORKLOADS)

OPEN_RATES = (2000, 4000, 8000, 16000)
#: The rate ``open_p99_ms`` and the batcher/server layer metrics refer to.
REFERENCE_RATE = 4000
SLO_P99_MS = 50.0


@dataclass(frozen=True)
class Metric:
    """One named number: unit, direction and where it is defined."""

    name: str
    unit: str
    better: str
    #: How much worse the median may get before ``compare.py`` calls it a
    #: regression; ``None`` for a layer metric, which explains a change and
    #: gates nothing.  Its meaning depends on ``kind``.
    bound: float | None = None
    #: Workloads on which the value is measured.
    workloads: tuple[str, ...] = ALL
    note: str = ""
    #: ``share``: bound is a share of the baseline median.  ``abs``: bound is
    #: an absolute drop, judged on per-seed differences (the value repeats
    #: exactly per seed).  ``steps``: bound counts rungs of ``OPEN_RATES``.
    kind: str = "share"


_RO = ("serve-readonly",)
_MX = ("serve-ingest-mixed",)

#: The suite's end-to-end metrics, judged by ``compare.py``.  Bounds are the
#: sizing issue's; the two p99 bounds use its allowance of up to 25%.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.15,
           note="process start to first timed operation: import, generate, calibrate "
                "and the median of three build/save/open cycles"),
    Metric("peak_rss_mb", "MB", "lower", 0.10,
           note="ru_maxrss of the workload process at exit"),
    Metric("pairs_completeness", "ratio", "higher", 0.002, kind="abs",
           note="share of the generator's true pairs the program returned (link-*: "
                "result.matches; serve-*: the checked query answers)"),
    Metric("link_records_per_s", "rec/s", "higher", 0.10, LINK_WORKLOADS,
           "(|A|+|B|) / cold link() wall: the mean, over six linker seeds, of each "
           "seed's median wall"),
    Metric("link_small_p50_ms", "ms", "lower", 0.10, LINK_WORKLOADS,
           "median cold link() wall on a 1/50 slice of each side (at least 500): "
           "calibration and table set-up weigh most there"),
    Metric("q1_p50_ms", "ms", "lower", 0.10, _RO,
           "median query_batch([row]) wall of phase q1"),
    Metric("q1_p99_ms", "ms", "lower", 0.25, _RO,
           "median of the p99s of consecutive 1000-call windows of phase q1"),
    Metric("q1024_qps", "queries/s", "higher", 0.10, _RO,
           "1024 / median query_batch(1024) wall"),
    Metric("open_p99_ms", "ms", "lower", 0.25, _RO,
           "median of the p99s of consecutive 1000-request windows at 4000 req/s, "
           "timed from each request's due time; a refused request counts as the "
           "phase's length, a failed one as +inf"),
    Metric("open_slo_rate_qps", "req/s", "higher", 1, _RO,
           "highest fixed rate with p99 <= 50 ms, none refused or failed, achieved >= 0.98 "
           "offered; the bound is one rung of the rate ladder", kind="steps"),
    Metric("http_p50_ms", "ms", "lower", 0.10, _RO,
           "client-side connect to full response, 2 closed-loop clients"),
    Metric("ingest_rows_per_s", "rows/s", "higher", 0.10, _MX,
           "64 / median durable ingest(64 rows) wall"),
    Metric("mixed_q64_p50_ms", "ms", "lower", 0.10, _MX,
           "median query_batch(64) wall interleaved with ingest"),
    Metric("overlay_q1024_qps", "queries/s", "higher", 0.10, _MX,
           "1024 / median query_batch(1024) wall with the un-compacted tail present"),
    Metric("compact_s", "s", "lower", 0.15, _MX,
           "median wall of the in-loop compact() calls (a foreground stall)"),
    Metric("reopen_s", "s", "lower", 0.15, _MX,
           "from_bundle wall replaying the un-compacted WAL tail"),
)


@dataclass(frozen=True)
class DriverMetric:
    """One ``end_to_end`` entry of BENCHMARK.json: per workload an alias of
    the suite metric ``source`` names, which has the same direction."""

    name: str
    unit: str
    better: str
    #: Share of the parent's median: three times the widest ten-seed spread
    #: measured on any workload (README, "Two sets"), rounded up, and no more
    #: than the contract's 0.25; ``setup_s`` takes the largest, as it asks.
    bound: float
    source: dict[str, str] = field(default_factory=dict)


def _same(name: str) -> dict[str, str]:
    return dict.fromkeys(ALL, name)


DRIVER = (
    DriverMetric("setup_s", "s", "lower", 0.25, _same("setup_s")),
    DriverMetric("peak_rss_mb", "MB", "lower", 0.15, _same("peak_rss_mb")),
    DriverMetric("pairs_completeness", "ratio", "higher", 0.015, _same("pairs_completeness")),
    DriverMetric("bulk_per_s", "1/s", "higher", 0.25, {
        "link-ncvr-pl": "link_records_per_s", "link-dblp-ph": "link_records_per_s",
        "serve-readonly": "q1024_qps", "serve-ingest-mixed": "overlay_q1024_qps"}),
    DriverMetric("small_p50_ms", "ms", "lower", 0.25, {
        "link-ncvr-pl": "link_small_p50_ms", "link-dblp-ph": "link_small_p50_ms",
        "serve-readonly": "q1_p50_ms", "serve-ingest-mixed": "mixed_q64_p50_ms"}),
)


def _layer(prefix: str, names: str, workloads: tuple[str, ...], unit: str = "s",
           better: str = "lower") -> tuple[Metric, ...]:
    return tuple(
        Metric(f"{prefix}.{name}", unit, better, None, workloads)
        for name in names.split()
    )


_LINK = LINK_WORKLOADS
_NCVR = ("link-ncvr-pl",)
_DBLP = ("link-dblp-ph",)
_RECORD_LEVEL = ("link-ncvr-pl", "serve-readonly", "serve-ingest-mixed")
_SERVE = ("serve-readonly", "serve-ingest-mixed")

#: Layer = module name.  ``_s`` metrics are seconds inside that layer over
#: the traced replay, whose operation counts are fixed by the arguments.
PER_LAYER = (
    *_layer("pipeline", "calibrate_s embed_s index_s match_s overhead_s", _LINK),
    *_layer("core.cvector", "intern_s hash_s", ALL),
    *_layer("core.cvector", "intern_hit_rate", ALL, "ratio", "higher"),
    *_layer("core.cvector", "unique_values", ALL, "count", "lower"),
    *_layer("hamming.bitmatrix", "scatter_s", ALL),
    *_layer("core.encoder", "encode_dataset_s self_s", ALL),
    *_layer("core.encoder", "rows_per_s", ALL, "1/s", "higher"),
    *_layer("hamming.lsh", "keys_s candidates_s", _RECORD_LEVEL),
    *_layer("hamming.lsh", "index_s", ("link-ncvr-pl", "serve-readonly")),
    *_layer("hamming.lsh", "n_tables pairs_generated pairs_unique "
            "max_bucket_product", _NCVR, "count", "lower"),
    *_layer("hamming.lsh", "dup_share", _NCVR, "ratio", "lower"),
    *_layer("hamming.distance", "verify_s", _RECORD_LEVEL),
    *_layer("hamming.distance", "pairs_verified", _RECORD_LEVEL, "count", "lower"),
    *_layer("hamming.distance", "accept_share", _RECORD_LEVEL, "ratio", "higher"),
    *_layer("hamming.query", "batch_query_s group_s", _SERVE),
    *_layer("hamming.query", "candidates_per_query", _SERVE, "count", "lower"),
    *_layer("rules.blocking", "index_s candidates_s classify_s", _DBLP),
    *_layer("rules.blocking", "n_candidates total_tables", _DBLP, "count", "lower"),
    *_layer("rules.blocking", "accept_share", _DBLP, "ratio", "higher"),
    *_layer("core.persist", "save_s load_s", _RO),
    *_layer("core.persist", "bundle_bytes_per_record", _RO, "B", "lower"),
    *_layer("serve.engine", "q1.embed_ms q1.query_ms q1.overhead_ms "
            "q1024.embed_ms q1024.query_ms q1024.overhead_ms", _RO, "ms"),
    *_layer("serve.sharded", "embed_ms fanout_ms merge_ms", _MX, "ms"),
    *_layer("serve.sharded", "serial_share", _MX, "ratio", "lower"),
    *_layer("serve.sharded", "shard_time_skew", _MX, "ratio", "lower"),
    *_layer("serve.sharded", "clean_q1024_qps", _MX, "queries/s", "higher"),
    *_layer("core.shards", "append_s compact_s open_s", _MX),
    *_layer("core.shards", "compact_bytes", _MX, "B", "lower"),
    *_layer("core.shards", "replayed_records overlay_rows", _MX, "count", "lower"),
    *_layer("wal", "append_s replay_s", _MX),
    *_layer("wal", "bytes_per_record", _MX, "B", "lower"),
    *_layer("asyncserve.batcher", "queue_wait_p50_ms queue_wait_p99_ms", _RO, "ms"),
    *_layer("asyncserve.batcher", "batch_size_mean", _RO, "count", "higher"),
    *_layer("asyncserve.batcher", "flush_timer_share", _RO, "ratio", "lower"),
    *_layer("asyncserve.batcher", "rejected deadline_missed", _RO, "count", "lower"),
    *(
        metric
        for rate in OPEN_RATES
        for metric in (
            *_layer(f"asyncserve.open_r{rate}", "p50_ms p99_ms", _RO, "ms"),
            *_layer(f"asyncserve.open_r{rate}", "achieved_qps", _RO, "req/s", "higher"),
        )
    ),
    *_layer("asyncserve.server", "execute_p50_ms", _RO, "ms"),
    *_layer("asyncserve.server", "engine_busy_share", _RO, "ratio", "lower"),
    *_layer("asyncserve.http", "overhead_p50_ms", _RO, "ms"),
    *_layer("data", "generate_s", ALL),
    *_layer("loadgen", "late_p99_ms", _RO, "ms"),
    *_layer("trace", "overhead_ratio", ALL, "ratio", "lower"),
)

#: Everything ``--trace 1`` reports, in BENCHMARK.json's ``per_layer`` order:
#: the suite metrics one workload group has (the driver's ``end_to_end``
#: cannot hold them), then the layers.
TRACED = (*(m for m in END_TO_END if m.workloads != ALL), *PER_LAYER)

BY_NAME: dict[str, Metric] = {m.name: m for m in (*END_TO_END, *PER_LAYER)}


def benchmark_json() -> dict[str, object]:
    """The driver contract, derived from the tables above."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DRIVER
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in TRACED
        ],
    }
