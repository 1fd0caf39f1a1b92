"""Async serving front-end with adaptive micro-batching.

The batched kernels behind :class:`repro.serve.QueryEngine` are ~two
orders of magnitude faster per query at batch 1024 than at batch 1 (the
benchmark suite's ``q1024_qps`` against ``q1_p50_ms``), but real
clients send one query at a time.
This package closes that gap: an :mod:`asyncio` front-end coalesces
concurrent single-query requests into dynamic micro-batches, executes
them off-loop against the existing engines, and splits the grouped
results back per request — byte-identical to querying the engine
directly.

* :class:`MicroBatcher` — bounded admission queue, adaptive flush on
  ``max_batch`` / ``max_wait_us``, per-request deadlines, backpressure.
* :class:`AsyncQueryServer` — engine lifecycle on top of the batcher:
  off-loop execution, zero-downtime snapshot swap, ``stats()``.
* :func:`serve_http` / :class:`HttpFrontend` — a thin stdlib HTTP layer
  over ``asyncio.start_server`` (the in-process async API needs no
  sockets, so tests and embedders skip it).

See ``docs/serving.md`` ("Async front-end").
"""

from repro.serve.asyncserve.batcher import (
    BatcherConfig,
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
)
from repro.serve.asyncserve.http import HttpFrontend, serve_http
from repro.serve.asyncserve.server import AsyncQueryServer

__all__ = [
    "AsyncQueryServer",
    "BatcherConfig",
    "DeadlineExceededError",
    "HttpFrontend",
    "MicroBatcher",
    "QueueFullError",
    "serve_http",
]
