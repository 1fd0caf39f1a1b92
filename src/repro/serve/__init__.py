"""Snapshot serving: high-throughput batched queries over a persisted index.

One engine (:mod:`repro.serve.engine`) serves both bundle layouts — a
plain single-index bundle and a sharded one with durable ingest and
compaction; the async front-end that coalesces single-query requests
into micro-batches is :mod:`repro.serve.asyncserve`.  See
``docs/serving.md``.
"""

from repro.serve.asyncserve import AsyncQueryServer, BatcherConfig
from repro.serve.engine import QueryEngine, QueryResult

ShardedQueryEngine = QueryEngine  # the suite's name; goes when ROADMAP (1) lets the suite change

__all__ = [
    "AsyncQueryServer",
    "BatcherConfig",
    "QueryEngine",
    "QueryResult",
    "ShardedQueryEngine",
]
