"""Tests for the async serving front-end (repro.serve.asyncserve).

Four layers:

* **MicroBatcher mechanics** against a stub executor: timer flush of a
  single queued item, bursts larger than ``max_batch`` splitting in
  arrival order, cancellation mid-batch, expired deadlines dropped
  before they consume batch slots, bounded-queue rejection with a
  retry-after hint, and the adaptive window staying inside
  ``[min_wait_us, max_wait_us]``.
* **Parity** — answers through :class:`AsyncQueryServer` (coalesced,
  off-loop) are identical to direct ``query_batch`` calls, including
  mixed per-request ``threshold`` / ``top_k`` parameters.
* **Zero-downtime swap** — requests in flight during :meth:`swap`
  complete on the bundle they were dispatched against, later requests
  see the new bundle, and nothing is dropped or version-mixed.
* **HTTP layer** — the stdlib front-end round-trips queries, surfaces
  health/stats, and maps client errors to 400/404.
* **Isolation** — one malformed request fails alone: the well-formed
  requests coalesced with it get their answers.
"""

import asyncio
import json
import time

import pytest

from repro.core.encoder import RecordEncoder
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.generators import EXPERIMENT_SCHEME
from repro.serve import AsyncQueryServer, BatcherConfig, QueryEngine
from repro.serve.asyncserve import (
    DeadlineExceededError,
    MicroBatcher,
    QueueFullError,
    serve_http,
)

SEED = 11
N = 80
THRESHOLD = 4
K = 30


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), N, scheme_pl(), seed=SEED)


@pytest.fixture(scope="module")
def encoder(problem):
    rows = list(problem.dataset_a.value_rows()) + list(problem.dataset_b.value_rows())
    return RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=SEED)


@pytest.fixture(scope="module")
def rows_a(problem):
    return [tuple(r) for r in problem.dataset_a.value_rows()]


@pytest.fixture(scope="module")
def rows_b(problem):
    return [tuple(r) for r in problem.dataset_b.value_rows()]


class _StubResult:
    """Echo executor result: row i answers with its integer value."""

    def __init__(self, rows):
        self._rows = rows

    def matches(self):
        return [[(int(row[0]), 0)] for row in self._rows]


def _stub_execute(calls, delay_s=0.0):
    async def execute(rows, threshold, top_k):
        calls.append((list(rows), threshold, top_k))
        if delay_s:
            await asyncio.sleep(delay_s)
        return _StubResult(rows)

    return execute


class TestMicroBatcher:
    def test_single_item_flushes_on_timer(self):
        """One queued request must not wait for the batch to fill."""
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls),
                BatcherConfig(max_batch=64, max_wait_us=5000.0, adaptive=False),
            )
            started = time.perf_counter()
            matches = await batcher.submit(("7",))
            elapsed = time.perf_counter() - started
            await batcher.close()
            return matches, elapsed

        matches, elapsed = asyncio.run(scenario())
        assert matches == [(7, 0)]
        assert elapsed < 1.0
        assert len(calls) == 1 and len(calls[0][0]) == 1

    def test_burst_splits_in_arrival_order(self):
        """A burst larger than max_batch splits into consecutive batches
        that preserve submission order across the split."""
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls), BatcherConfig(max_batch=4, max_wait_us=2000.0)
            )
            results = await asyncio.gather(
                *[batcher.submit((str(i),)) for i in range(10)]
            )
            await batcher.close()
            return results

        results = asyncio.run(scenario())
        assert results == [[(i, 0)] for i in range(10)]
        assert all(len(call[0]) <= 4 for call in calls)
        replayed = [row for call in calls for row in call[0]]
        assert replayed == [(str(i),) for i in range(10)]
        assert len(calls) >= 3  # 10 requests cannot fit in two 4-slots

    def test_coalescing_happens(self):
        """Concurrent submissions share execute calls (that is the point)."""
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls),
                BatcherConfig(max_batch=32, max_wait_us=20000.0, adaptive=False),
            )
            await asyncio.gather(*[batcher.submit((str(i),)) for i in range(16)])
            await batcher.close()

        asyncio.run(scenario())
        assert len(calls) < 16  # strictly fewer calls than requests
        assert sum(len(call[0]) for call in calls) == 16

    def test_groups_by_threshold_and_top_k(self):
        """Mixed parameters coalesce but execute as separate sub-batches."""
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls),
                BatcherConfig(max_batch=8, max_wait_us=100000.0, adaptive=False),
            )
            await asyncio.gather(
                batcher.submit(("1",)),
                batcher.submit(("2",), top_k=1),
                batcher.submit(("3",)),
                batcher.submit(("4",), threshold=9),
            )
            await batcher.close()

        asyncio.run(scenario())
        seen = {(threshold, top_k) for __, threshold, top_k in calls}
        assert seen == {(None, None), (None, 1), (9, None)}

    def test_cancellation_mid_batch_skips_only_that_request(self):
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls),
                BatcherConfig(max_batch=8, max_wait_us=50000.0, adaptive=False),
            )
            doomed = asyncio.create_task(batcher.submit(("0",)))
            survivor = asyncio.create_task(batcher.submit(("1",)))
            await asyncio.sleep(0)  # both admitted, neither flushed yet
            doomed.cancel()
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await batcher.close()
            return result

        result = asyncio.run(scenario())
        assert result == [(1, 0)]
        replayed = [row for call in calls for row in call[0]]
        assert ("0",) not in replayed  # cancelled request never dispatched
        assert ("1",) in replayed

    def test_expired_deadline_drops_before_consuming_batch_slots(self):
        calls = []

        async def scenario():
            batcher = MicroBatcher(
                _stub_execute(calls, delay_s=0.15),
                BatcherConfig(max_batch=1, max_wait_us=0.0, max_inflight_batches=1),
            )
            blocker = asyncio.create_task(batcher.submit(("0",)))
            await asyncio.sleep(0.03)  # blocker dispatched, executor busy
            doomed = asyncio.create_task(batcher.submit(("1",), deadline_s=0.01))
            survivor = asyncio.create_task(batcher.submit(("2",)))
            results = await asyncio.gather(
                blocker, doomed, survivor, return_exceptions=True
            )
            await batcher.close()
            return results

        blocker, doomed, survivor = asyncio.run(scenario())
        assert blocker == [(0, 0)]
        assert isinstance(doomed, DeadlineExceededError)
        assert doomed.waited_s >= 0.01
        assert survivor == [(2, 0)]
        replayed = [row for call in calls for row in call[0]]
        assert ("1",) not in replayed  # never reached the engine

    def test_queue_full_rejects_with_retry_after(self):
        async def scenario():
            batcher = MicroBatcher(
                _stub_execute([], delay_s=0.2),
                BatcherConfig(
                    max_batch=1,
                    max_wait_us=0.0,
                    queue_depth=2,
                    max_inflight_batches=1,
                ),
            )
            admitted = [asyncio.create_task(batcher.submit(("0",)))]
            await asyncio.sleep(0.05)  # dispatched, executor busy
            admitted += [
                asyncio.create_task(batcher.submit((str(i),))) for i in (1, 2)
            ]
            await asyncio.sleep(0)  # both enqueued: queue at capacity
            with pytest.raises(QueueFullError) as rejected:
                await batcher.submit(("9",))
            results = await asyncio.gather(*admitted)
            await batcher.close()
            return rejected.value, results, dict(batcher.stats)

        error, results, stats = asyncio.run(scenario())
        assert error.retry_after_s > 0.0
        assert error.depth == 2
        assert stats["n_rejected"] == 1.0
        assert results == [[(i, 0)] for i in range(3)]  # admitted all answered

    def test_adaptive_window_stays_within_bounds(self):
        config = BatcherConfig(max_batch=100, max_wait_us=10000.0, min_wait_us=100.0)

        async def scenario():
            batcher = MicroBatcher(_stub_execute([]), config)
            empty = batcher._effective_wait_s()
            batcher._fill_ewma = 1.0
            full = batcher._effective_wait_s()
            for __ in range(50):
                batcher._note_flush(1)
            decayed = batcher._effective_wait_s()
            for __ in range(50):
                batcher._note_flush(100)
            regrown = batcher._effective_wait_s()
            await batcher.close()
            return empty, full, decayed, regrown

        empty, full, decayed, regrown = asyncio.run(scenario())
        assert empty == pytest.approx(config.min_wait_us * 1e-6)
        assert full == pytest.approx(config.max_wait_us * 1e-6)
        assert decayed < 0.1 * full  # light load shrinks the window
        assert regrown == pytest.approx(full, rel=0.01)  # heavy load regrows it
        lo = config.min_wait_us * 1e-6
        hi = config.max_wait_us * 1e-6
        assert lo <= decayed <= hi and lo <= regrown <= hi

    def test_non_adaptive_window_is_constant(self):
        config = BatcherConfig(max_batch=10, max_wait_us=3000.0, adaptive=False)

        async def scenario():
            batcher = MicroBatcher(_stub_execute([]), config)
            batcher._note_flush(1)
            wait = batcher._effective_wait_s()
            await batcher.close()
            return wait

        assert asyncio.run(scenario()) == pytest.approx(3000.0 * 1e-6)

    def test_execute_error_propagates_to_all_requests_in_batch(self):
        async def scenario():
            async def explode(rows, threshold, top_k):
                raise RuntimeError("engine down")

            batcher = MicroBatcher(
                explode, BatcherConfig(max_batch=4, max_wait_us=1000.0)
            )
            results = await asyncio.gather(
                batcher.submit(("1",)),
                batcher.submit(("2",)),
                return_exceptions=True,
            )
            await batcher.close()
            return results, dict(batcher.stats)

        results, stats = asyncio.run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert stats["n_execute_errors"] >= 1.0

    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = MicroBatcher(_stub_execute([]), BatcherConfig())
            await batcher.close()
            with pytest.raises(RuntimeError):
                await batcher.submit(("1",))

        asyncio.run(scenario())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BatcherConfig(max_batch=0)
        with pytest.raises(ValueError):
            BatcherConfig(max_wait_us=-1.0)
        with pytest.raises(ValueError):
            BatcherConfig(min_wait_us=10.0, max_wait_us=5.0)
        with pytest.raises(ValueError):
            BatcherConfig(queue_depth=0)
        with pytest.raises(ValueError):
            BatcherConfig(deadline_ms=0.0)
        with pytest.raises(ValueError):
            BatcherConfig(max_inflight_batches=0)


class TestAsyncQueryServerParity:
    def test_coalesced_answers_match_direct_query_batch(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )
        direct = engine.query_batch(rows_b).matches()

        async def scenario():
            async with AsyncQueryServer(
                engine, BatcherConfig(max_batch=32, max_wait_us=1000.0)
            ) as server:
                return await asyncio.gather(*[server.query(r) for r in rows_b])

        served = asyncio.run(scenario())
        assert served == direct

    def test_mixed_parameters_answered_per_request(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )
        queries = rows_b[:12]
        direct_default = engine.query_batch(queries).matches()
        direct_topk = engine.query_batch(queries, top_k=1).matches()
        direct_loose = engine.query_batch(queries, threshold=THRESHOLD + 2).matches()

        async def scenario():
            async with AsyncQueryServer(
                engine, BatcherConfig(max_batch=64, max_wait_us=5000.0)
            ) as server:
                tasks = []
                for i, row in enumerate(queries):
                    tasks.append(server.query(row))
                    tasks.append(server.query(row, top_k=1))
                    tasks.append(server.query(row, threshold=THRESHOLD + 2))
                return await asyncio.gather(*tasks)

        served = asyncio.run(scenario())
        for i in range(len(queries)):
            assert served[3 * i] == direct_default[i]
            assert served[3 * i + 1] == direct_topk[i]
            assert served[3 * i + 2] == direct_loose[i]

    def test_stats_shape(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )

        async def scenario():
            async with AsyncQueryServer(engine) as server:
                await asyncio.gather(*[server.query(r) for r in rows_b[:8]])
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["generation"] == 0
        assert stats["n_swaps"] == 0
        assert stats["counters"]["n_completed"] == 8.0
        assert stats["qps"] > 0.0
        assert 0.0 < stats["latency_s"]["p50"] <= stats["latency_s"]["p99"]
        assert stats["batch_size"]["mean"] >= 1.0
        assert stats["latency_hist"]["count"] == 8
        assert stats["engine_stats"]["n_queries"] == 8.0
        json.dumps(stats)  # the whole view must be JSON-serialisable


class TestZeroDowntimeSwap:
    def test_inflight_completes_on_old_bundle_and_new_requests_see_new(
        self, rows_a, rows_b, encoder, tmp_path
    ):
        """The swap contract: nothing dropped, nothing version-mixed."""
        old_rows = rows_a[: N // 4]
        probe = rows_a[-1]  # only indexed in the new bundle

        v1 = QueryEngine.build(old_rows, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        v1.save(tmp_path / "v1")
        v2 = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        v2.save(tmp_path / "v2")
        want_old = v1.query_batch([probe]).matches()[0]
        want_new = v2.query_batch([probe]).matches()[0]
        assert want_old != want_new  # the probe distinguishes the versions

        async def scenario():
            server = AsyncQueryServer.from_bundle(
                tmp_path / "v1", BatcherConfig(max_batch=4, max_wait_us=500.0)
            )
            # Slow the v1 engine so the first request is still in flight
            # when the swap lands.
            original = server.engine.query_batch

            def slow_query_batch(rows, threshold=None, top_k=None):
                time.sleep(0.2)
                return original(rows, threshold, top_k)

            server.engine.query_batch = slow_query_batch
            inflight = asyncio.create_task(server.query(probe))
            await asyncio.sleep(0.05)  # dispatched against v1, executing
            generation = await server.swap(tmp_path / "v2")
            after = await server.query(probe)
            before = await inflight
            stats = server.stats()
            await server.close()
            return before, after, generation, stats

        before, after, generation, stats = asyncio.run(scenario())
        assert before == want_old  # in-flight request answered by v1
        assert after == want_new  # post-swap request answered by v2
        assert generation == 1
        assert stats["n_swaps"] == 1
        assert stats["counters"].get("n_deadline_missed", 0.0) == 0.0
        assert stats["counters"]["n_completed"] == 2.0  # nothing dropped

    def test_swap_under_load_drops_nothing_and_never_mixes_versions(
        self, rows_a, rows_b, encoder, tmp_path
    ):
        old_rows = rows_a[: N // 4]
        v1 = QueryEngine.build(old_rows, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        v1.save(tmp_path / "v1")
        v2 = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        v2.save(tmp_path / "v2")
        stream = rows_a[-20:]
        want_v1 = v1.query_batch(stream).matches()
        want_v2 = v2.query_batch(stream).matches()

        async def scenario():
            server = AsyncQueryServer.from_bundle(
                tmp_path / "v1", BatcherConfig(max_batch=4, max_wait_us=500.0)
            )
            queries = [
                asyncio.create_task(server.query(row)) for row in stream[:10]
            ]
            await server.swap(tmp_path / "v2")
            queries += [
                asyncio.create_task(server.query(row)) for row in stream[10:]
            ]
            answers = await asyncio.gather(*queries)
            await server.close()
            return answers

        answers = asyncio.run(scenario())
        for i, answer in enumerate(answers):
            # Every request is answered by exactly one version, and the
            # ones issued after the swap must be v2.
            assert answer in (want_v1[i], want_v2[i])
            if i >= 10:
                assert answer == want_v2[i]


class TestHttpFrontend:
    @staticmethod
    async def _request(host, port, method, path, payload=None, content_length=None):
        body = b"" if payload is None else json.dumps(payload).encode()
        if content_length is None:
            content_length = len(body)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        )
        return await TestHttpFrontend._exchange(host, port, head.encode() + body)

    @staticmethod
    async def _exchange(host, port, request):
        """Send raw request bytes, half-close, parse the one response."""
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(request)
        writer.write_eof()
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head_part, __, body_part = raw.partition(b"\r\n\r\n")
        status = int(head_part.split(b" ", 2)[1])
        headers = dict(
            line.decode().split(": ", 1)
            for line in head_part.split(b"\r\n")[1:]
            if b": " in line
        )
        return status, headers, json.loads(body_part)

    def test_roundtrip_health_query_stats(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )
        direct = engine.query_batch(rows_b[:5]).matches()

        async def scenario():
            server = AsyncQueryServer(engine, BatcherConfig(max_batch=8))
            frontend = await serve_http(server)
            try:
                health = await self._request(
                    frontend.host, frontend.port, "GET", "/healthz"
                )
                answers = await asyncio.gather(
                    *[
                        self._request(
                            frontend.host,
                            frontend.port,
                            "POST",
                            "/query",
                            {"row": list(row)},
                        )
                        for row in rows_b[:5]
                    ]
                )
                stats = await self._request(
                    frontend.host, frontend.port, "GET", "/stats"
                )
                missing = await self._request(
                    frontend.host, frontend.port, "GET", "/nope"
                )
                bad = await self._request(
                    frontend.host, frontend.port, "POST", "/query", {"row": "x"}
                )
            finally:
                await frontend.stop()
            return health, answers, stats, missing, bad

        health, answers, stats, missing, bad = asyncio.run(scenario())
        assert health[0] == 200 and health[2]["ok"] is True
        for i, (status, __, payload) in enumerate(answers):
            assert status == 200
            assert payload["matches"] == [list(m) for m in direct[i]]
        assert stats[0] == 200 and stats[2]["counters"]["n_completed"] == 5.0
        assert missing[0] == 404
        assert bad[0] == 400

    def test_queue_full_maps_to_503_with_retry_after(self, rows_a, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )

        async def scenario():
            server = AsyncQueryServer(
                engine,
                BatcherConfig(
                    max_batch=1,
                    max_wait_us=0.0,
                    queue_depth=1,
                    max_inflight_batches=1,
                ),
            )
            # Saturate: one executing, one queued, then the HTTP request
            # must be rejected with 503 + Retry-After.
            original = server.engine.query_batch

            def slow_query_batch(rows, threshold=None, top_k=None):
                time.sleep(0.3)
                return original(rows, threshold, top_k)

            server.engine.query_batch = slow_query_batch
            frontend = await serve_http(server)
            try:
                fills = [asyncio.create_task(server.query(rows_a[0]))]
                await asyncio.sleep(0.05)  # dispatched, executor busy
                fills.append(asyncio.create_task(server.query(rows_a[0])))
                await asyncio.sleep(0)  # queued: queue at capacity
                status, headers, payload = await self._request(
                    frontend.host,
                    frontend.port,
                    "POST",
                    "/query",
                    {"row": list(rows_a[0])},
                )
                await asyncio.gather(*fills)
            finally:
                await frontend.stop()
            return status, headers, payload

        status, headers, payload = asyncio.run(scenario())
        assert status == 503
        assert float(headers["Retry-After"]) > 0.0
        assert payload["retry_after_s"] > 0.0

    def test_deadline_maps_to_504(self, rows_a, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )

        async def scenario():
            server = AsyncQueryServer(
                engine,
                BatcherConfig(
                    max_batch=1,
                    max_wait_us=0.0,
                    deadline_ms=10.0,
                    max_inflight_batches=1,
                ),
            )
            original = server.engine.query_batch

            def slow_query_batch(rows, threshold=None, top_k=None):
                time.sleep(0.2)
                return original(rows, threshold, top_k)

            server.engine.query_batch = slow_query_batch
            frontend = await serve_http(server)
            try:
                blocker = asyncio.create_task(server.query(rows_a[0]))
                await asyncio.sleep(0.05)
                status, __, payload = await self._request(
                    frontend.host,
                    frontend.port,
                    "POST",
                    "/query",
                    {"row": list(rows_a[0])},
                )
                await blocker
            finally:
                await frontend.stop()
            return status, payload

        status, payload = asyncio.run(scenario())
        assert status == 504
        assert "deadline" in payload["error"]

    def test_malformed_client_input_is_400(self, rows_a, encoder):
        engine = QueryEngine.build(
            rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED
        )
        row = list(rows_a[0])
        bodies = [
            {"row": row, "threshold": True},  # JSON true is not an integer
            {"row": row, "top_k": True},
            {"row": row, "threshold": -1},
            {"row": row, "deadline_ms": -5},
            {"row": row, "deadline_ms": True},
            {"row": row, "top_k": 0},  # the engine's own ValueError
            {"row": row + ["EXTRA"]},  # the encoder's
        ]

        async def scenario():
            frontend = await serve_http(AsyncQueryServer(engine, BatcherConfig(max_batch=8)))
            post = (frontend.host, frontend.port, "POST", "/query")
            try:
                answers = [await self._request(*post, body) for body in bodies]
                answers.append(
                    await self._request(*post, {"row": row}, content_length=-1)
                )
                good = await self._request(*post, {"row": row, "threshold": 0, "top_k": 1})
            finally:
                await frontend.stop()
            return answers, good

        answers, good = asyncio.run(scenario())
        assert [status for status, __, __ in answers] == [400] * (len(bodies) + 1)
        assert all(payload["error"] for __, __, payload in answers)
        assert good[0] == 200

    def test_non_alphabet_row_is_400(self, rows_a, encoder):
        """A one-row batch (embedded value by value) with a character outside
        the alphabet is the client's error, named in the answer."""
        engine = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        row = list(rows_a[0])

        async def scenario():
            frontend = await serve_http(AsyncQueryServer(engine, BatcherConfig(max_batch=8)))
            post = (frontend.host, frontend.port, "POST", "/query")
            try:
                answer = await self._request(*post, {"row": ["JOSÉ", *row[1:]]})
                good = await self._request(*post, {"row": row})
            finally:
                await frontend.stop()
            return answer, good

        (status, __, payload), good = asyncio.run(scenario())
        assert status == 400
        assert "'É'" in payload["error"] and "'JOSÉ'" in payload["error"]
        assert good[0] == 200  # the server keeps serving

    def _raw_query(self, engine, body, content_length, then_row):
        """POST ``body`` bytes to /query under a given ``Content-Length``,
        then ask ``then_row`` on a fresh connection."""
        head = f"POST /query HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n"

        async def scenario():
            frontend = await serve_http(AsyncQueryServer(engine, BatcherConfig(max_batch=8)))
            try:
                answer = await self._exchange(
                    frontend.host, frontend.port, head.encode() + body
                )
                good = await self._request(
                    frontend.host, frontend.port, "POST", "/query", {"row": then_row}
                )
            finally:
                await frontend.stop()
            return answer, good

        return asyncio.run(scenario())

    def test_body_shorter_than_content_length_is_400(self, rows_a, encoder):
        engine = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        row = list(rows_a[0])
        (status, __, payload), good = self._raw_query(engine, b'{"row": ["A"', 100, row)
        assert status == 400
        assert payload["error"] == "truncated request body"
        assert good[0] == 200  # the server keeps serving

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_json_constant_is_400(self, rows_a, encoder, constant):
        engine = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        row = list(rows_a[0])
        body = f'{{"row": {json.dumps(row)}, "deadline_ms": {constant}}}'.encode()
        (status, __, payload), good = self._raw_query(engine, body, len(body), row)
        assert status == 400
        assert payload["error"] == "body is not valid JSON"
        assert good[0] == 200


class TestPoisonedBatch:
    """Three concurrent queries, the middle one of the wrong arity."""

    def test_only_the_offender_fails_in_process(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        want = engine.query_batch([rows_b[0], rows_b[2]]).matches()

        async def scenario():
            async with AsyncQueryServer(
                engine, BatcherConfig(max_batch=8, max_wait_us=5000.0, adaptive=False)
            ) as server:
                results = await asyncio.gather(
                    server.query(rows_b[0]),
                    server.query(rows_b[1] + ("EXTRA",)),
                    server.query(rows_b[2]),
                    return_exceptions=True,
                )
                return results, server.stats()

        (first, bad, last), stats = asyncio.run(scenario())
        assert [first, last] == want
        assert isinstance(bad, ValueError) and "values" in str(bad)
        assert stats["counters"]["n_batches"] == 1.0  # the three were coalesced
        assert stats["counters"]["n_execute_errors"] == 1.0
        assert stats["counters"]["n_completed"] == 2.0

    def test_only_the_offender_gets_400_over_http(self, rows_a, rows_b, encoder):
        engine = QueryEngine.build(rows_a, encoder, threshold=THRESHOLD, k=K, seed=SEED)
        want = engine.query_batch([rows_b[0], rows_b[2]]).matches()
        rows = [list(rows_b[0]), list(rows_b[1]) + ["EXTRA"], list(rows_b[2])]

        async def scenario():
            frontend = await serve_http(
                AsyncQueryServer(
                    engine, BatcherConfig(max_batch=8, max_wait_us=100000.0, adaptive=False)
                )
            )
            try:
                answers = await asyncio.gather(
                    *[
                        TestHttpFrontend._request(
                            frontend.host, frontend.port, "POST", "/query", {"row": row}
                        )
                        for row in rows
                    ]
                )
                stats = frontend.server.stats()
            finally:
                await frontend.stop()
            return answers, stats

        answers, stats = asyncio.run(scenario())
        assert [status for status, __, __ in answers] == [200, 400, 200]
        assert [answers[0][2]["matches"], answers[2][2]["matches"]] == [
            [list(m) for m in matches] for matches in want
        ]
        assert "values" in answers[1][2]["error"]
        assert stats["counters"]["n_batches"] == 1.0  # the three were coalesced
