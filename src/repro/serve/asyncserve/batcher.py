"""Adaptive micro-batching (:class:`MicroBatcher`).

The batcher owns the *queueing* half of the async front-end: requests
are admitted into a bounded FIFO, coalesced into batches, and handed to
an ``execute`` coroutine supplied by the caller (the server layer binds
it to an engine).  It knows nothing about engines, snapshots or HTTP.

**Flush policy.**  A batch flushes when ``max_batch`` requests are
queued or when the oldest queued request has waited the *effective*
window.  The window adapts to load: it is ``max_wait_us`` scaled by an
exponential moving average of recent batch fill (``len(batch) /
max_batch``), clamped to ``[min_wait_us, max_wait_us]``.  Under light
load fill is near zero, so singles flush almost immediately (latency
floor); under heavy load fill approaches one, so the batcher waits the
full window and ships large batches (throughput ceiling).  Bursts
larger than ``max_batch`` split into consecutive batches in arrival
order.

**Backpressure.**  Admission beyond ``queue_depth`` raises
:class:`QueueFullError` carrying a ``retry_after_s`` hint, and at most
``max_inflight_batches`` batches execute concurrently — the flush loop
stalls (and the queue fills, and admission rejects) rather than buffering
unbounded work behind a saturated engine.

**Deadlines.**  A request whose deadline passes while queued is failed
with :class:`DeadlineExceededError` at flush time, *before* it consumes
a batch slot; a cancelled request is skipped the same way.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from collections.abc import Awaitable, Callable
from dataclasses import dataclass
from typing import Protocol

from repro.perf import LogHistogram

#: One query record: the attribute values of a single row.
Row = tuple[str, ...]

#: Per-query matches: ``(record_id, distance)`` pairs.
Matches = list[tuple[int, int]]

#: Smoothing factor for the batch-fill moving average (per flush).
_FILL_ALPHA = 0.25


class SupportsMatches(Protocol):
    """The slice of :class:`repro.serve.QueryResult` the batcher needs."""

    def matches(self) -> list[Matches]:
        """Per-query ``(record_id, distance)`` lists."""
        ...


#: The execution hook: a coroutine answering one coalesced batch.
ExecuteFn = Callable[[list[Row], "int | None", "int | None"], Awaitable[SupportsMatches]]


class QueueFullError(RuntimeError):
    """Admission rejected: the bounded queue is at ``queue_depth``.

    ``retry_after_s`` is the server's drain-time estimate — HTTP layers
    surface it as a ``Retry-After`` header with a 503.
    """

    def __init__(self, depth: int, retry_after_s: float):
        self.depth = depth
        self.retry_after_s = retry_after_s
        super().__init__(
            f"admission queue full ({depth} queued); retry in {retry_after_s:.3f}s"
        )


class DeadlineExceededError(RuntimeError):
    """The request's deadline passed while it waited in the queue."""

    def __init__(self, waited_s: float):
        self.waited_s = waited_s
        super().__init__(f"deadline exceeded after {waited_s * 1e3:.1f} ms in queue")


@dataclass(frozen=True)
class BatcherConfig:
    """Knobs of the micro-batcher (see the module docstring).

    Parameters
    ----------
    max_batch:
        Flush as soon as this many requests are queued.
    max_wait_us:
        Ceiling on how long the oldest queued request may wait before a
        timer flush (microseconds).
    min_wait_us:
        Floor of the adaptive window — the latency cost a request pays
        even when the server is idle.  0 flushes singles immediately.
    queue_depth:
        Bounded admission queue; submissions beyond it are rejected
        with :class:`QueueFullError`.
    deadline_ms:
        Default per-request deadline (milliseconds); ``None`` means no
        deadline unless the request carries one.
    adaptive:
        When false the window is always ``max_wait_us`` (deterministic,
        useful in tests).
    max_inflight_batches:
        Batches allowed to execute concurrently before the flush loop
        stalls.  2 pipelines collection against execution without
        letting work pile up behind a saturated engine.
    """

    max_batch: int = 256
    max_wait_us: float = 2000.0
    min_wait_us: float = 0.0
    queue_depth: int = 4096
    deadline_ms: float | None = None
    adaptive: bool = True
    max_inflight_batches: int = 2

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ValueError(f"max_wait_us must be >= 0, got {self.max_wait_us}")
        if not 0 <= self.min_wait_us <= self.max_wait_us:
            raise ValueError(
                f"need 0 <= min_wait_us <= max_wait_us, got "
                f"min_wait_us={self.min_wait_us}, max_wait_us={self.max_wait_us}"
            )
        if self.queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {self.deadline_ms}")
        if self.max_inflight_batches < 1:
            raise ValueError(
                f"max_inflight_batches must be >= 1, got {self.max_inflight_batches}"
            )


@dataclass
class _Pending:
    """One admitted request waiting to be batched."""

    row: Row
    threshold: int | None
    top_k: int | None
    enqueued: float
    deadline: float | None
    future: "asyncio.Future[Matches]"


class MicroBatcher:
    """Coalesce concurrent single-query submissions into micro-batches.

    ``execute(rows, threshold, top_k)`` is awaited once per flushed
    (sub-)batch; requests with differing ``(threshold, top_k)`` flush
    together but execute as separate sub-batches, so every request is
    answered exactly as a direct ``query_batch`` call would.

    The flush loop starts lazily on the first :meth:`submit` and is torn
    down by :meth:`close` (which drains the queue first).
    """

    def __init__(self, execute: ExecuteFn, config: BatcherConfig | None = None):
        self._execute = execute
        self.config = config or BatcherConfig()
        self._queue: deque[_Pending] = deque()
        self._arrived = asyncio.Event()
        self._loop_task: "asyncio.Task[None] | None" = None
        self._inflight: set["asyncio.Task[None]"] = set()
        self._closed = False
        self._fill_ewma = 0.0
        #: Additive counters: ``n_submitted`` / ``n_completed`` /
        #: ``n_rejected`` / ``n_deadline_missed`` / ``n_cancelled`` /
        #: ``n_execute_errors`` / ``n_batches`` / ``n_flush_full`` /
        #: ``n_flush_timer`` and the admission high-water mark
        #: ``queue_depth_peak``.
        self.stats: dict[str, float] = {}
        #: Distribution of flushed batch sizes.
        self.batch_size_hist = LogHistogram.sizes()
        #: Per-request latency (admission to result), seconds.
        self.request_latency_hist = LogHistogram.latency()

    # -- admission ---------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently admitted and waiting to be batched."""
        return len(self._queue)

    def _bump(self, key: str, value: float = 1.0) -> None:
        self.stats[key] = self.stats.get(key, 0.0) + value

    def _retry_after_s(self) -> float:
        """Drain-time estimate for a rejected request: how long until the
        queued backlog has flushed, assuming full batches every window."""
        windows = -(-len(self._queue) // self.config.max_batch)
        return max(1e-3, windows * self._effective_wait_s())

    async def submit(
        self,
        row: Row,
        threshold: int | None = None,
        top_k: int | None = None,
        deadline_s: float | None = None,
    ) -> Matches:
        """Admit one query and await its matches.

        ``deadline_s`` (seconds from now; defaults to the config's
        ``deadline_ms``) bounds the *queueing* delay — a request still
        queued when it expires fails with :class:`DeadlineExceededError`
        without consuming a batch slot.  Raises :class:`QueueFullError`
        when the admission queue is at capacity.
        """
        if self._closed:
            raise RuntimeError("batcher is closed")
        if len(self._queue) >= self.config.queue_depth:
            self._bump("n_rejected")
            raise QueueFullError(len(self._queue), self._retry_after_s())
        now = time.monotonic()
        if deadline_s is None and self.config.deadline_ms is not None:
            deadline_s = self.config.deadline_ms / 1e3
        pending = _Pending(
            row=tuple(row),
            threshold=threshold,
            top_k=top_k,
            enqueued=now,
            deadline=None if deadline_s is None else now + deadline_s,
            future=asyncio.get_running_loop().create_future(),
        )
        self._queue.append(pending)
        self._bump("n_submitted")
        peak = self.stats.get("queue_depth_peak", 0.0)
        if len(self._queue) > peak:
            self.stats["queue_depth_peak"] = float(len(self._queue))
        if self._loop_task is None:
            self._loop_task = asyncio.create_task(self._run())
        self._arrived.set()
        return await pending.future

    async def close(self) -> None:
        """Flush the remaining queue, await in-flight batches, stop."""
        self._closed = True
        self._arrived.set()
        if self._loop_task is not None:
            await self._loop_task
            self._loop_task = None
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight))

    # -- flush loop --------------------------------------------------------------

    def _effective_wait_s(self) -> float:
        """The adaptive window, in seconds (see the module docstring)."""
        cfg = self.config
        if not cfg.adaptive:
            return cfg.max_wait_us * 1e-6
        span = cfg.max_wait_us - cfg.min_wait_us
        return (cfg.min_wait_us + span * self._fill_ewma) * 1e-6

    def _note_flush(self, batch_size: int) -> None:
        fill = min(1.0, batch_size / self.config.max_batch)
        self._fill_ewma += _FILL_ALPHA * (fill - self._fill_ewma)

    async def _run(self) -> None:
        cfg = self.config
        while True:
            if not self._queue:
                if self._closed:
                    return
                self._arrived.clear()
                if self._queue or self._closed:
                    continue  # raced with an append / close
                await self._arrived.wait()
                continue
            # Collection window: wait for the batch to fill, bounded by
            # the adaptive window measured from the oldest request.
            flush_at = self._queue[0].enqueued + self._effective_wait_s()
            while len(self._queue) < cfg.max_batch and not self._closed:
                remaining = flush_at - time.monotonic()
                if remaining <= 0:
                    self._bump("n_flush_timer")
                    break
                self._arrived.clear()
                try:
                    await asyncio.wait_for(self._arrived.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    self._bump("n_flush_timer")
                    break
            else:
                if not self._closed:
                    self._bump("n_flush_full")
            while (
                len(self._inflight) >= cfg.max_inflight_batches and not self._closed
            ):
                await asyncio.wait(
                    tuple(self._inflight), return_when=asyncio.FIRST_COMPLETED
                )
            batch = self._drain(cfg.max_batch)
            if not batch:
                continue
            self._note_flush(len(batch))
            self.batch_size_hist.record(float(len(batch)))
            self._bump("n_batches")
            task = asyncio.create_task(self._dispatch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)

    def _drain(self, limit: int) -> list[_Pending]:
        """Pop up to ``limit`` live requests; expired/cancelled ones are
        failed/skipped *without* consuming batch slots."""
        now = time.monotonic()
        batch: list[_Pending] = []
        while self._queue and len(batch) < limit:
            pending = self._queue.popleft()
            if pending.future.done():
                self._bump("n_cancelled")
                continue
            if pending.deadline is not None and now > pending.deadline:
                self._bump("n_deadline_missed")
                pending.future.set_exception(
                    DeadlineExceededError(now - pending.enqueued)
                )
                continue
            batch.append(pending)
        return batch

    async def _dispatch(self, batch: list[_Pending]) -> None:
        """Execute one flushed batch and distribute per-request results.

        Requests group by ``(threshold, top_k)`` — each group is one
        ``execute`` call, so every request gets exactly the answer a
        direct ``query_batch`` with its own parameters would return.
        """
        groups: dict[tuple[int | None, int | None], list[_Pending]] = {}
        for pending in batch:
            groups.setdefault((pending.threshold, pending.top_k), []).append(pending)
        for (threshold, top_k), group in groups.items():
            await self._run_group(group, threshold, top_k)

    async def _run_group(
        self, group: list[_Pending], threshold: int | None, top_k: int | None
    ) -> None:
        """One ``execute`` call for ``group``; a failure is narrowed to its rows.

        One malformed row fails the whole call, so a failed group of
        several is re-run request by request: only the offenders get the
        exception (an engine-wide failure still reaches everyone), and
        ``n_execute_errors`` counts them.
        """
        try:
            result = await self._execute([pending.row for pending in group], threshold, top_k)
        except Exception as exc:  # delivered, not swallowed
            if len(group) > 1:
                for pending in group:
                    await self._run_group([pending], threshold, top_k)
                return
            self._bump("n_execute_errors")
            if not group[0].future.done():
                group[0].future.set_exception(exc)
            return
        done = time.monotonic()
        for pending, matches in zip(group, result.matches()):
            if pending.future.done():
                self._bump("n_cancelled")
                continue
            pending.future.set_result(matches)
            self._bump("n_completed")
            self.request_latency_hist.record(done - pending.enqueued)
