"""Plain-text reporting: the CLI's one output sink and its aligned tables."""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence
from typing import TextIO


def emit(text: str, stream: TextIO | None = None) -> None:
    """Write one line of user-facing output.

    The single stdout sink for the CLI and library: reprolint's RL006
    bans bare ``print()`` in library code so that embedding callers can
    redirect everything by passing ``stream``.
    """
    target = sys.stdout if stream is None else stream
    target.write(text + "\n")


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], precision: int = 4
) -> str:
    """Render an aligned monospace table.

    Floats are rounded to ``precision`` digits; everything else is
    ``str()``-ed.

    >>> print(format_table(['a', 'b'], [[1, 0.5], [22, 0.25]]))
    a   | b
    ----+-----
    1   | 0.5
    22  | 0.25
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.{precision}g}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells, expected {len(headers)}")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        " | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "-+-".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
