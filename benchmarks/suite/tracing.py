"""Spans recorded from outside the program, around calls into each layer.

A span is ``(name, start, end, parent, op_id)``; spans of one operation
(one ``link()``, one query batch) share ``op_id``.  They stay in memory
and are written once, when the run ends.  Nothing in ``src/`` is touched:
functions are wrapped at the call site, objects (a composite hash, a
serving engine) by a proxy that forwards to the real one.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from types import TracebackType

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.bitvector import BitVector
from repro.hamming.lsh import CompositeHash, HammingLSH


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Span":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        tracer = self.tracer
        tracer.spans[self.index][2] = time.perf_counter()
        tracer.stack.pop()


class Tracer:
    """In-memory span store for one thread of staged calls."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index | None, op_id]``
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = 0
        #: Proxies forward without a span while this is false, so the real
        #: engine can be called for comparison on objects the replay traces.
        self.active = True

    def next_op(self) -> int:
        self.op_id += 1
        return self.op_id

    def span(self, name: str) -> _Span:
        """Open a span under the innermost open one; use as ``with``."""
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self.stack.append(index)
        return _Span(self, index)

    def add(self, name: str, start: float, end: float, op_id: int) -> None:
        """Record a finished root span timed elsewhere (another thread)."""
        self.spans.append([name, start, end, None, op_id])

    # -- reading ---------------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds covered by every span called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus what its direct children cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(t for t, s in zip(own, self.spans) if s[0] == name)

    def root_of(self, index: int) -> int:
        while self.spans[index][3] is not None:
            index = self.spans[index][3]
        return index

    def self_time_gap(self) -> float:
        """Largest relative gap between a root span and the self times
        under it (0 when children nest properly)."""
        own = self.self_times()
        sums: dict[int, float] = {}
        for i in range(len(self.spans)):
            root = self.root_of(i)
            sums[root] = sums.get(root, 0.0) + own[i]
        worst = 0.0
        for root, covered in sums.items():
            duration = self.spans[root][2] - self.spans[root][1]
            if duration > 0:
                worst = max(worst, abs(covered - duration) / duration)
        return worst

    def write(self, path: Path, header: dict[str, object]) -> None:
        own = self.self_times()
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            **header,
            "fields": ["name", "start_s", "end_s", "parent", "op_id", "self_s"],
            "spans": [
                [s[0], s[1] - origin, s[2] - origin, s[3], s[4], own[i]]
                for i, s in enumerate(self.spans)
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")


class TracedComposite:
    """Stands in for a :class:`CompositeHash`; times ``keys_for``."""

    def __init__(self, inner: CompositeHash, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    @property
    def positions(self) -> tuple[int, ...]:
        return self.inner.positions

    def key_for(self, vector: BitVector) -> int:
        return self.inner.key_for(vector)

    def keys_for(self, matrix: BitMatrix):  # noqa: ANN201 - numpy array
        if not self.tracer.active:
            return self.inner.keys_for(matrix)
        with self.tracer.span("hamming.lsh.keys"):
            return self.inner.keys_for(matrix)


def trace_keys(lsh: HammingLSH, tracer: Tracer) -> None:
    """Route every blocking group's key computation through the tracer.

    Only call on an LSH the traced pass owns; the untraced engines keep
    their plain composites.
    """
    for group in lsh.groups:
        group.composite = TracedComposite(group.composite, tracer)  # type: ignore[assignment]
