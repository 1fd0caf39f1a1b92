"""Deterministic process/thread fan-out (``ParallelConfig`` + ``parallel_map``).

The contract that makes parallelism safe for a reproduction:

* ``n_jobs=1`` is **exactly** the single-process path — a plain loop in
  the calling process, no executor, no pickling.
* Results come back in submission order, so any decomposition of work
  into ordered shards produces bit-identical output regardless of
  ``n_jobs`` or backend.

Workers must be module-level callables (picklable) for the process
backend; the thread backend accepts anything and suits workloads that
spend their time in GIL-releasing NumPy kernels.
"""

from __future__ import annotations

import multiprocessing
import os
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_BACKENDS = ("process", "thread")
_START_METHODS = (None, "fork", "spawn", "forkserver")


def resolve_n_jobs(n_jobs: int) -> int:
    """Effective worker count: ``0`` (or negative) means "all CPU cores"."""
    if n_jobs >= 1:
        return n_jobs
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ParallelConfig:
    """How to shard and fan out hot-path work.

    Parameters
    ----------
    n_jobs:
        Worker count; ``1`` keeps the exact single-process code path and
        ``0`` resolves to all CPU cores.
    chunk_size:
        Records per embedding shard / preferred work-item granularity.
        ``None`` splits evenly into ``n_jobs`` shards.
    backend:
        ``"process"`` (default; true multi-core for Python-bound work) or
        ``"thread"`` (cheaper startup; fine for GIL-releasing kernels).
    start_method:
        Process start method (``"fork"``, ``"spawn"``, ``"forkserver"``;
        ``None`` keeps the platform default).  Workers and initializers
        must be module-level callables, so every start method — including
        ``"spawn"``, which pickles everything — produces identical
        results.
    """

    n_jobs: int = 1
    chunk_size: int | None = None
    backend: str = "process"
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.n_jobs < 0:
            raise ValueError(f"n_jobs must be >= 0, got {self.n_jobs}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}, got {self.backend!r}")
        if self.start_method not in _START_METHODS:
            raise ValueError(
                f"start_method must be one of {_START_METHODS}, got {self.start_method!r}"
            )

    @property
    def effective_jobs(self) -> int:
        """``n_jobs`` with ``0`` resolved to the machine's core count."""
        return resolve_n_jobs(self.n_jobs)

    def shard_ranges(self, n_items: int) -> list[tuple[int, int]]:
        """Contiguous ``[start, stop)`` ranges covering ``0 .. n_items``.

        Shard size is ``chunk_size`` when set, otherwise an even split
        into ``effective_jobs`` shards.  Ranges are returned in order, so
        concatenating per-shard results reproduces the unsharded output.
        """
        if n_items <= 0:
            return []
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            size = (n_items + self.effective_jobs - 1) // self.effective_jobs
        size = max(1, size)
        return [(lo, min(lo + size, n_items)) for lo in range(0, n_items, size)]


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    config: ParallelConfig,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
) -> list[R]:
    """Apply ``fn`` to every item, preserving order.

    With one effective worker (or at most one item) this is a plain loop
    in the calling process — the exact single-process path.  Otherwise the
    items are dispatched to a process or thread pool per
    ``config.backend``; ``initializer(*initargs)`` runs once per worker
    (and once inline on the single-process path), which is how large
    read-only arrays are shipped to workers exactly once instead of once
    per work item.  ``config.start_method`` selects how worker processes
    are started (``"spawn"`` requires module-level, picklable workers —
    which all of ours are).
    """
    work = list(items)
    jobs = min(config.effective_jobs, len(work))
    if jobs <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in work]
    if config.backend == "process":
        context = (
            multiprocessing.get_context(config.start_method)
            if config.start_method is not None
            else None
        )
        with ProcessPoolExecutor(
            max_workers=jobs,
            initializer=initializer,
            initargs=tuple(initargs),
            mp_context=context,
        ) as pool:
            return list(pool.map(fn, work))
    with ThreadPoolExecutor(
        max_workers=jobs, initializer=initializer, initargs=tuple(initargs)
    ) as pool:
        return list(pool.map(fn, work))
