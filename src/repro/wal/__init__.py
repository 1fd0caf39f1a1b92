"""Append-only write-ahead segments (CRC-framed, fsync'd).

An import-leaf package: at module level it touches only the stdlib, so
any layer may depend on it freely (today ``repro.core.shards`` does).  See :mod:`repro.wal.segment` and ``docs/serving.md``.
"""

from repro.wal.segment import (
    FRAME_OVERHEAD,
    ReplayResult,
    SegmentWriter,
    frame,
    replay_segment,
    truncate_segment,
)

__all__ = [
    "FRAME_OVERHEAD",
    "ReplayResult",
    "SegmentWriter",
    "frame",
    "replay_segment",
    "truncate_segment",
]
