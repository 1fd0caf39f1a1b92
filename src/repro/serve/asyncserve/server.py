"""Engine lifecycle behind the micro-batcher (:class:`AsyncQueryServer`).

The server binds a :class:`MicroBatcher` to a
:class:`~repro.serve.engine.QueryEngine` and owns everything the batcher
deliberately does not know about:

* **Off-loop execution.**  ``query_batch`` is CPU-bound (NumPy kernels
  release the GIL, but the call itself blocks); every flushed batch runs
  in a single-thread executor, so the event loop keeps admitting and
  coalescing requests while a batch executes, and engine calls stay
  serialised (the engine's ``stats`` bookkeeping is not thread-safe).
* **Zero-downtime snapshot swap.**  :meth:`swap` opens the new bundle
  off-loop, atomically redirects new requests to it, waits for the old
  generation's in-flight batches to drain, then closes the old engine
  if the server opened it.
  No request is dropped, and no request mixes versions: each batch
  captures its engine generation at dispatch.
* **Observability.**  :meth:`stats` flattens the batcher's counters and
  histograms (latency p50/p95/p99, QPS, batch-size distribution,
  queue depth, deadline misses) with the engine's own counters into one
  JSON-serialisable dict, served by the CLI and the HTTP ``/stats``
  route.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from repro.serve.asyncserve.batcher import BatcherConfig, Matches, MicroBatcher, Row
from repro.serve.engine import QueryEngine, QueryResult


class _EngineSlot:
    """One engine generation with its in-flight batch accounting.

    ``idle`` is set exactly when ``inflight == 0``; :meth:`swap` waits on
    the *retired* slot's event before retiring its engine, so in-flight
    batches always complete against the bundle they started on.
    ``owned`` marks an engine the server opened itself and therefore
    closes; one handed to the constructor stays its caller's.
    """

    __slots__ = ("engine", "generation", "owned", "inflight", "idle")

    def __init__(self, engine: QueryEngine, generation: int, owned: bool):
        self.engine = engine
        self.generation = generation
        self.owned = owned
        self.inflight = 0
        self.idle = asyncio.Event()
        self.idle.set()

    async def retire(self) -> None:
        """Wait out the in-flight batches, then close an owned engine."""
        await self.idle.wait()
        if self.owned:
            self.engine.close()

    def acquire(self) -> None:
        self.inflight += 1
        self.idle.clear()

    def release(self) -> None:
        self.inflight -= 1
        if self.inflight == 0:
            self.idle.set()


class AsyncQueryServer:
    """Micro-batched async serving over one engine generation at a time.

    Construct with an engine (``AsyncQueryServer(engine)``, which stays
    the caller's to close) or from a bundle path (:meth:`from_bundle`;
    the server closes what it opens, here and in :meth:`swap`).  Use as
    an async context manager, or call :meth:`close` explicitly.  All
    methods must be called from one event loop.

    The in-process API is :meth:`query` (single row in, matches out) —
    the HTTP layer in :mod:`repro.serve.asyncserve.http` is a thin
    wrapper over it, so embedders and tests never need a socket.
    """

    def __init__(self, engine: QueryEngine, config: BatcherConfig | None = None):
        self._slot = _EngineSlot(engine, generation=0, owned=False)
        #: How :meth:`swap` opens bundles; :meth:`from_bundle` sets its own.
        self._mmap_mode: str | None = "r"
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="asyncserve"
        )
        self._batcher = MicroBatcher(self._execute, config)
        self._started = time.monotonic()
        self._n_swaps = 0
        self._closed = False

    @classmethod
    def from_bundle(
        cls,
        bundle: str | Path,
        config: BatcherConfig | None = None,
        mmap_mode: str | None = "r",
    ) -> "AsyncQueryServer":
        """Serve a bundle path; :meth:`swap` reuses the same ``mmap_mode``."""
        server = cls(QueryEngine.from_bundle(bundle, mmap_mode=mmap_mode), config=config)
        server._slot.owned = True  # opened here, so closed here
        server._mmap_mode = mmap_mode
        return server

    # -- serving -----------------------------------------------------------------

    @property
    def engine(self) -> QueryEngine:
        """The engine currently answering new requests."""
        return self._slot.engine

    @property
    def generation(self) -> int:
        """Bumped by every completed :meth:`swap` (starts at 0)."""
        return self._slot.generation

    async def query(
        self,
        row: Row,
        threshold: int | None = None,
        top_k: int | None = None,
        deadline_s: float | None = None,
    ) -> Matches:
        """Answer one query through the micro-batcher.

        Coalesced with concurrent callers but byte-identical to
        ``engine.query_batch([row], threshold, top_k)``.  Raises
        :class:`~repro.serve.asyncserve.batcher.QueueFullError` under
        backpressure and
        :class:`~repro.serve.asyncserve.batcher.DeadlineExceededError`
        when the request expires while queued.
        """
        return await self._batcher.submit(
            row, threshold=threshold, top_k=top_k, deadline_s=deadline_s
        )

    async def _execute(
        self, rows: "list[Row]", threshold: int | None, top_k: int | None
    ) -> QueryResult:
        """Run one coalesced batch off-loop against the current generation.

        The slot is captured *synchronously* (before any await), so a
        concurrent :meth:`swap` cannot retire this batch's engine until
        the batch releases it.
        """
        slot = self._slot
        slot.acquire()
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor,
                partial(slot.engine.query_batch, rows, threshold, top_k),
            )
        finally:
            slot.release()

    # -- snapshot swap -----------------------------------------------------------

    async def swap(self, bundle: str | Path) -> int:
        """Swap to a new snapshot bundle with zero downtime.

        Opens ``bundle`` in a side thread (serving continues), atomically
        routes new requests to the new engine, then drains and closes the
        retired one (if the server opened it).  In-flight requests complete on the bundle they were
        dispatched against — no request is dropped or answered by a mix
        of versions.  Returns the new generation number.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        engine = await asyncio.to_thread(QueryEngine.from_bundle, bundle, self._mmap_mode)
        retired = self._slot
        self._slot = _EngineSlot(engine, retired.generation + 1, owned=True)
        self._n_swaps += 1
        await retired.retire()
        return self._slot.generation

    # -- observability -----------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """One JSON-serialisable view of server, batcher and engine state."""
        batcher = self._batcher
        latency = batcher.request_latency_hist
        sizes = batcher.batch_size_hist
        uptime = time.monotonic() - self._started
        completed = batcher.stats.get("n_completed", 0.0)
        return {
            "uptime_s": uptime,
            "generation": self._slot.generation,
            "n_swaps": self._n_swaps,
            "n_indexed": self._slot.engine.n_indexed,
            "queue_depth": batcher.queue_depth,
            "inflight_batches": self._slot.inflight,
            "qps": completed / uptime if uptime > 0 else 0.0,
            "counters": dict(batcher.stats),
            "latency_s": {
                "mean": latency.mean,
                "p50": latency.percentile(0.50),
                "p95": latency.percentile(0.95),
                "p99": latency.percentile(0.99),
            },
            "batch_size": {
                "mean": sizes.mean,
                "p50": sizes.percentile(0.50),
                "p99": sizes.percentile(0.99),
            },
            "latency_hist": latency.snapshot(),
            "batch_size_hist": sizes.snapshot(),
            "engine_stats": dict(self._slot.engine.stats),
            "engine_batch_time_hist": self._slot.engine.batch_time_hist.snapshot(),
        }

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        """Drain the batcher, retire the engine, stop the executor."""
        if self._closed:
            return
        self._closed = True
        await self._batcher.close()
        await self._slot.retire()
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncQueryServer":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
