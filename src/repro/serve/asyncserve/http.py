"""Thin stdlib HTTP front-end over :class:`AsyncQueryServer`.

A deliberately small HTTP/1.1 layer on ``asyncio.start_server`` — no
framework, no dependency — exposing the in-process async API on a
socket.  One JSON request per connection (``Connection: close``), four
routes:

* ``GET /healthz`` — liveness plus the serving generation.
* ``GET /stats`` — the server's :meth:`~AsyncQueryServer.stats` dict.
* ``POST /query`` — ``{"row": [...], "threshold"?, "top_k"?,
  "deadline_ms"?}`` → ``{"matches": [[record_id, distance], ...]}``;
  a row the encoder rejects (wrong arity, non-alphabet text) is ``400``.
* ``POST /swap`` — ``{"bundle": path}`` → ``{"generation": n}``
  (zero-downtime snapshot swap).

Backpressure maps onto HTTP verbatim: a full admission queue is ``503``
with a ``Retry-After`` header (seconds, from the batcher's drain
estimate), an expired deadline is ``504``, and a client that has not
sent its whole request within ``_READ_TIMEOUT_S`` is ``408``.  Anything
the batching layer guarantees — coalescing, parity with direct
``query_batch`` calls — holds here too, since this layer only
translates bytes.

The in-process API (:meth:`AsyncQueryServer.query`) is the primary
surface; tests and embedders use it without sockets and only the
socket-specific paths need this module.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.serve.asyncserve.batcher import DeadlineExceededError, QueueFullError
from repro.serve.asyncserve.server import AsyncQueryServer

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Cap on request head + body sizes (a query row is tiny; this is a
#: safety bound, not a tuning knob).
_MAX_HEAD_BYTES = 16 * 1024
_MAX_BODY_BYTES = 1 * 1024 * 1024
#: Seconds a client gets to send its whole request, head and body
#: together; a client that stalls is answered ``408`` and its connection
#: closed (a safety bound, not a tuning knob).
_READ_TIMEOUT_S = 10.0

#: One parsed route answer: status, extra headers, JSON payload.
_Response = tuple[int, list[tuple[str, str]], dict[str, Any]]


class _BadRequestError(ValueError):
    """Client error: malformed request line, JSON or field types."""


def _is_int(value: object) -> bool:
    """A JSON integer — ``bool`` is an ``int`` subclass, and JSON ``true`` is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_constant(name: str) -> float:
    """``json.loads`` hook: ``NaN`` / ``Infinity`` are not JSON (RFC 8259).

    Python's parser accepts them by default, and a ``NaN`` deadline
    compares false against every clock reading — silently no deadline.
    """
    raise ValueError(f"non-standard JSON constant {name}")


def _parse_query_body(body: dict[str, Any]) -> tuple[
    tuple[str, ...], int | None, int | None, float | None
]:
    """Validate a ``POST /query`` body into ``submit`` arguments."""
    raw_row = body.get("row")
    if not isinstance(raw_row, list) or not all(
        isinstance(value, str) for value in raw_row
    ):
        raise _BadRequestError('"row" must be a list of strings')
    threshold = body.get("threshold")
    if threshold is not None and (not _is_int(threshold) or threshold < 0):
        raise _BadRequestError('"threshold" must be a non-negative integer')
    top_k = body.get("top_k")
    if top_k is not None and not _is_int(top_k):
        raise _BadRequestError('"top_k" must be an integer')
    deadline_ms = body.get("deadline_ms")
    if deadline_ms is not None and (
        isinstance(deadline_ms, bool)
        or not isinstance(deadline_ms, (int, float))
        or deadline_ms < 0
    ):
        raise _BadRequestError('"deadline_ms" must be a non-negative number')
    deadline_s = None if deadline_ms is None else float(deadline_ms) / 1e3
    return tuple(raw_row), threshold, top_k, deadline_s


class HttpFrontend:
    """The socket front-end; one instance owns one listening server.

    ``limit_requests`` makes the frontend resolve :meth:`serve_until_done`
    after that many handled requests — deterministic termination for
    tests and ``repro serve --limit-requests``.  ``port=0`` binds an
    ephemeral port; read the bound address from :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        server: AsyncQueryServer,
        host: str = "127.0.0.1",
        port: int = 0,
        limit_requests: int | None = None,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.limit_requests = limit_requests
        self._listener: asyncio.Server | None = None
        self._handled = 0
        self._done = asyncio.Event()

    @property
    def n_handled(self) -> int:
        """Requests answered so far (any status)."""
        return self._handled

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._listener = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockname = self._listener.sockets[0].getsockname()
        self.host, self.port = sockname[0], int(sockname[1])
        return self.host, self.port

    async def serve_until_done(self) -> None:
        """Serve until :meth:`stop` — or ``limit_requests`` — ends it."""
        await self._done.wait()

    async def stop(self) -> None:
        """Stop listening and release the batching server (idempotent)."""
        self._done.set()
        if self._listener is not None:
            self._listener.close()
            await self._listener.wait_closed()
            self._listener = None
        await self.server.close()

    # -- request handling --------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                try:
                    method, path, body = await asyncio.wait_for(
                        self._read_request(reader), _READ_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    status, headers = 408, []
                    payload = {"error": "request not received in time"}
                else:
                    status, headers, payload = await self._route(method, path, body)
            except _BadRequestError as exc:
                status, headers, payload = 400, [], {"error": str(exc)}
            except QueueFullError as exc:
                status = 503
                headers = [("Retry-After", f"{exc.retry_after_s:.3f}")]
                payload = {"error": str(exc), "retry_after_s": exc.retry_after_s}
            except DeadlineExceededError as exc:
                status, headers, payload = 504, [], {"error": str(exc)}
            except Exception as exc:  # translated, never a dropped connection
                status, headers, payload = 500, [], {"error": str(exc)}
            self._write_response(writer, status, headers, payload)
            await writer.drain()
        finally:
            writer.close()
            self._handled += 1
            if (
                self.limit_requests is not None
                and self._handled >= self.limit_requests
            ):
                self._done.set()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, Any]]:
        """Parse one request: method, path and (for POST) the JSON body."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as exc:
            raise _BadRequestError("truncated request head") from exc
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequestError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequestError(f"malformed request line: {lines[0]!r}")
        method, path, _version = parts
        lengths: set[int] = set()
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                # RFC 9110 section 8.6: 1*DIGIT, not the "+10", "1_0" or
                # non-ASCII digits that ``int()`` also takes.
                if not (value.isascii() and value.isdigit()):
                    raise _BadRequestError("bad Content-Length")
                lengths.add(int(value))
        if len(lengths) > 1:
            raise _BadRequestError("conflicting Content-Length headers")
        content_length = lengths.pop() if lengths else 0
        if content_length > _MAX_BODY_BYTES:
            raise _BadRequestError("request body too large")
        body: dict[str, Any] = {}
        if content_length:
            try:
                raw = await reader.readexactly(content_length)
            except asyncio.IncompleteReadError as exc:
                raise _BadRequestError("truncated request body") from exc
            try:
                parsed = json.loads(raw, parse_constant=_reject_constant)
            except ValueError as exc:
                raise _BadRequestError("body is not valid JSON") from exc
            if not isinstance(parsed, dict):
                raise _BadRequestError("body must be a JSON object")
            body = parsed
        return method, path, body

    async def _route(
        self, method: str, path: str, body: dict[str, Any]
    ) -> _Response:
        server = self.server
        if method == "GET" and path == "/healthz":
            return 200, [], {
                "ok": True,
                "generation": server.generation,
                "n_indexed": server.engine.n_indexed,
            }
        if method == "GET" and path == "/stats":
            return 200, [], dict(server.stats())
        if method == "POST" and path == "/query":
            row, threshold, top_k, deadline_s = _parse_query_body(body)
            try:
                matches = await server.query(
                    row, threshold=threshold, top_k=top_k, deadline_s=deadline_s
                )
            except ValueError as exc:  # wrong arity, non-alphabet text, top_k < 1
                raise _BadRequestError(str(exc)) from exc
            return 200, [], {"matches": matches}
        if method == "POST" and path == "/swap":
            bundle = body.get("bundle")
            if not isinstance(bundle, str):
                raise _BadRequestError('"bundle" must be a path string')
            generation = await server.swap(bundle)
            return 200, [], {"generation": generation}
        return 404, [], {"error": f"no route for {method} {path}"}

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: list[tuple[str, str]],
        payload: dict[str, Any],
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in headers)
        writer.write("\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + body)


async def serve_http(
    server: AsyncQueryServer,
    host: str = "127.0.0.1",
    port: int = 0,
    limit_requests: int | None = None,
) -> HttpFrontend:
    """Start an :class:`HttpFrontend` and return it once it is listening."""
    frontend = HttpFrontend(
        server, host=host, port=port, limit_requests=limit_requests
    )
    await frontend.start()
    return frontend
