"""The linkage result record — the lingua franca of every linker — and
:func:`timed`, the one clock every ``link()`` fills its ``timings`` with.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@contextmanager
def timed(timings: dict[str, float], key: str) -> Iterator[None]:
    """Record the wall-clock seconds of the ``with`` body as ``timings[key]``."""
    start = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - start


@dataclass
class LinkageResult:
    """Output of one linkage run, with enough detail for every metric."""

    rows_a: np.ndarray
    rows_b: np.ndarray
    n_candidates: int
    comparison_space: int
    timings: dict[str, float] = field(default_factory=dict)
    attribute_distances: dict[str, np.ndarray] = field(default_factory=dict)
    record_distances: np.ndarray | None = None
    #: Hot-path diagnostics alongside the phase timings: interning hit
    #: rate of the embedding stage, candidate pairs generated / unique /
    #: duplicate / verified and the largest bucket product.
    counters: dict[str, float] = field(default_factory=dict)

    @cached_property
    def matches(self) -> set[tuple[int, int]]:
        """The classified matching pairs as (row in A, row in B) tuples.

        Cached: the set is materialised from the row arrays once and
        reused — the evaluation harness reads it repeatedly per trial.
        The row arrays must not be mutated after the first access.
        """
        return set(zip(self.rows_a.tolist(), self.rows_b.tolist()))

    @property
    def n_matches(self) -> int:
        return int(self.rows_a.size)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    def summary(self) -> dict[str, int | float]:
        """Flat scalar summary of the run (sizes, reduction, timings).

        One dict for report tables and the CLI — keys are stable:
        ``n_matches``, ``n_candidates``, ``comparison_space``,
        ``reduction_ratio``, ``total_time_s`` and one ``time_<step>_s``
        per ``timings`` key.
        """
        out: dict[str, int | float] = {
            "n_matches": self.n_matches,
            "n_candidates": self.n_candidates,
            "comparison_space": self.comparison_space,
            "reduction_ratio": (
                1.0 - self.n_candidates / self.comparison_space
                if self.comparison_space
                else 0.0
            ),
            "total_time_s": self.total_time,
        }
        for step, seconds in self.timings.items():
            out[f"time_{step}_s"] = seconds
        return out
