"""Plumbing every workload shares: inputs, statistics, checks, provenance.

Nothing here knows a workload; the workload modules time calls into the
program and hand numbers to a :class:`Run`, which ``run.py`` prints.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import spec
from repro.data import (
    DBLPGenerator,
    LinkageProblem,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]

Row = tuple[str, ...]


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile (0 under two samples)."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    return float(q3 - q1)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; ``inf`` samples (failed requests) sort last."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def windowed_p99(values: Sequence[float], window: int) -> float:
    """Median of the p99s of consecutive ``window``-sample windows.

    One slow call moves a single p99 a lot; the median over windows moves
    only when the tail itself moved.  A trailing partial window is dropped
    unless it is the only one.
    """
    windows = [values[i : i + window] for i in range(0, len(values), window)]
    if len(windows) > 1 and len(windows[-1]) < window:
        windows.pop()
    return median([percentile(w, 0.99) for w in windows])


# -- one run's record ------------------------------------------------------------


@dataclass
class Run:
    """What one workload run was asked to do and everything it measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: float
    out_dir: Path
    process_start: float
    metrics: dict[str, dict[str, object]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def put(self, name: str, value: float, samples: Sequence[float] = (),
            n: int | None = None) -> None:
        """Record a metric.  ``samples`` (in the metric's unit) or ``n``
        state how many observations stand behind the value.  A value that
        is not finite (a percentile that landed on a failed request) is
        stored as ``None``: JSON has no infinity, and the failed count
        already says why."""
        entry: dict[str, object] = {
            "value": float(value) if math.isfinite(value) else None,
            "unit": spec.BY_NAME[name].unit,
        }
        if len(samples):
            entry["n"] = len(samples)
            entry["iqr"] = iqr(samples)
        elif n is not None:
            entry["n"] = n
        self.metrics[name] = entry

    def put_median(self, name: str, seconds: Sequence[float], scale: float = 1.0) -> None:
        """Record the median of timed walls, converted by ``scale``."""
        self.put(name, median(seconds) * scale, [s * scale for s in seconds])

    def put_rate(self, name: str, items: int, seconds: Sequence[float]) -> None:
        """Record ``items`` per median wall, with the spread of the rates."""
        self.put(name, items / median(seconds), [items / s for s in seconds])

    def value(self, name: str) -> float:
        return float(self.metrics[name]["value"])  # type: ignore[arg-type]

    def ops(self, n: int) -> None:
        """Count ``n`` timed operations that completed."""
        self.attempted += n

    def check(self, ok: bool, label: str) -> bool:
        """Count one output check; a miss is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(label)
        return ok

    def fail(self, n: int, label: str) -> None:
        """Count ``n`` attempted operations that failed."""
        if n:
            self.attempted += n
            self.failed += n
            if len(self.failures) < 20:
                self.failures.append(f"{label} x{n}")

    def mark_setup_done(self, cycle_walls: Sequence[float] = ()) -> None:
        """Close set-up: everything so far, with the repeated part at its median.

        ``cycle_walls`` are the walls of the repeated build/save/open
        cycle; all of them sit inside the elapsed time, so the others are
        taken out and the median put in their place.
        """
        elapsed = time.perf_counter() - self.process_start
        if cycle_walls:
            elapsed += median(cycle_walls) - sum(cycle_walls)
        self.put("setup_s", elapsed, cycle_walls)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Slice:
    """A share of the run's measuring time for one phase's loop."""

    def __init__(self, seconds: float, min_ops: int = 1):
        self.deadline = time.perf_counter() + seconds
        self.min_ops = min_ops
        self.done = 0

    def more(self) -> bool:
        """True while the phase should start another operation."""
        go = self.done < self.min_ops or time.perf_counter() < self.deadline
        self.done += go
        return go


# -- inputs ----------------------------------------------------------------------

DBLP_NAMES = ("FirstName", "LastName", "Title", "Year")


def make_problem(family: str, n: int, seed: int) -> tuple[LinkageProblem, float]:
    """The seeded linkage problem of one workload, and the time it took."""
    started = time.perf_counter()
    if family == "ncvr":
        problem = build_linkage_problem(NCVRGenerator(), n, scheme_pl(), seed=seed)
    else:
        problem = build_linkage_problem(DBLPGenerator(), n, scheme_ph(), seed=seed)
    return problem, time.perf_counter() - started


def query_stream(n_rows: int, n: int, seed: int) -> list[int]:
    """Seeded with-replacement sample of ``n`` row numbers out of ``n_rows``."""
    rng = random.Random(seed)
    return [rng.randrange(n_rows) for __ in range(n)]


def settle_heap() -> None:
    """Move the harness's own objects out of the collector's sight.

    The generated datasets are millions of small objects; a generation-2
    collection walking them takes ~100 ms and would land in whatever
    request is in flight.  Frozen objects are never walked again.
    """
    gc.collect()
    gc.freeze()


@contextmanager
def scratch_dir(out_dir: Path) -> Iterator[Path]:
    """A directory for bundles, inside the checkout, removed on exit."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# -- output checks -----------------------------------------------------------------


def pairs_digest(rows_a: np.ndarray, rows_b: np.ndarray) -> str:
    """Order-sensitive digest of a match list (the program's order is part
    of its contract: sorted by encoded pair id)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(rows_a, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(rows_b, dtype=np.int64).tobytes())
    return h.hexdigest()


# -- provenance ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    if not (REPO_ROOT / ".git").exists():  # git would search the parent directories
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def provenance(run: Run) -> dict[str, object]:
    """Where and on what a result was measured; embedded in every result."""
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": run.seed,
        "seconds": run.seconds,
        "scale": run.scale,
        "sizes": dict(run.sizes),
    }
