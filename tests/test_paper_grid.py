"""The committed paper grid (``BENCH_paper.json``) against the code.

Quality numbers repeat exactly per seed, so every quick cell of
``benchmarks/paper.py`` is regenerated through the driver's own
:func:`run_cell` and its ``exact`` columns must equal the committed ones.
The clock-free checks are evaluated over the committed file.  The full grid,
the two slow SM-EB cells and the clock checks included, runs in CI as
``python benchmarks/paper.py``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import paper  # noqa: E402

COMMITTED = json.loads(paper.OUT.read_text())
ROWS = {row["id"]: row for row in COMMITTED["cells"]}
#: SM-EB on DBLP: 20-35 s a cell (pivot edit distances over long titles).
SLOW = {cell.id for cell in paper.GRID if cell.method == "smeb" and cell.family == "dblp"}
QUICK = [cell for cell in paper.GRID if cell.id not in SLOW]


def test_committed_file_covers_the_grid():
    assert list(ROWS) == [cell.id for cell in paper.GRID]
    assert [c["name"] for c in COMMITTED["checks"]] == [check[0] for check in paper.CHECKS]
    assert set(COMMITTED["provenance"]) == {"commit", "python", "numpy", "cores"}


@pytest.mark.parametrize("cell", QUICK, ids=[cell.id for cell in QUICK])
def test_cell_reproduces_exactly(cell):
    row = paper.run_cell(cell)
    assert row["exact"] == ROWS[cell.id]["exact"]
    assert row["derived"] == ROWS[cell.id]["derived"]


CLOCK_FREE = paper.evaluate_checks(COMMITTED["cells"], clock=False)


@pytest.mark.parametrize("check", CLOCK_FREE, ids=[c["name"] for c in CLOCK_FREE])
def test_clock_free_check(check):
    """Gates pass on the committed cells; a shape row keeps its committed
    status, so a deviation that starts to hold (or a shape that stops) shows."""
    (committed,) = [c for c in COMMITTED["checks"] if c["name"] == check["name"]]
    assert check["status"] == committed["status"], check["detail"]
    if check["kind"] == "gate":
        assert check["status"] == "pass", check["detail"]
