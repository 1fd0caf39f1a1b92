"""Tests for repro.evaluation.reporting — the plain-text table renderer."""

import pytest

from repro.evaluation.reporting import format_table


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["method", "PC"], [["cBV-HB", 0.97], ["BfH", 0.92]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("method")
        assert "cBV-HB" in lines[2]

    def test_format_table_row_arity(self):
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])
