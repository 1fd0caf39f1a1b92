"""Tests for LinkageResult and the experiment config dataclasses."""

import numpy as np
import pytest

from repro.core.config import (
    CalibrationConfig,
    DBLP_ATTRIBUTE_K,
    DEFAULT_DELTA,
    DEFAULT_K,
    NCVR_ATTRIBUTE_K,
    PH_ATTRIBUTE_THRESHOLDS,
    PL_RECORD_THRESHOLD,
)
from repro.core.linker import LinkageResult


class TestLinkageResult:
    @pytest.fixture
    def result(self):
        return LinkageResult(
            rows_a=np.asarray([0, 1, 2]),
            rows_b=np.asarray([5, 6, 7]),
            n_candidates=10,
            comparison_space=100,
            timings={"embed": 0.5, "match": 0.25},
        )

    def test_matches_as_pairs(self, result):
        assert result.matches == {(0, 5), (1, 6), (2, 7)}

    def test_n_matches(self, result):
        assert result.n_matches == 3

    def test_total_time(self, result):
        assert result.total_time == pytest.approx(0.75)

    def test_empty_result(self):
        empty = LinkageResult(
            rows_a=np.empty(0, dtype=np.int64),
            rows_b=np.empty(0, dtype=np.int64),
            n_candidates=0,
            comparison_space=100,
        )
        assert empty.matches == set()
        assert empty.n_matches == 0
        assert empty.total_time == 0.0


class TestPaperConfigConstants:
    def test_pl_threshold_is_substitution_bound(self):
        assert PL_RECORD_THRESHOLD == 4

    def test_ph_thresholds(self):
        assert PH_ATTRIBUTE_THRESHOLDS == {"f1": 4, "f2": 4, "f3": 8}

    def test_attribute_k_tables(self):
        assert NCVR_ATTRIBUTE_K == {"f1": 5, "f2": 5, "f3": 10}
        assert DBLP_ATTRIBUTE_K == {"f1": 5, "f2": 5, "f3": 12}

    def test_config_defaults(self):
        calibration = CalibrationConfig()
        assert calibration.rho == 1.0
        assert calibration.r == pytest.approx(1 / 3)
        assert DEFAULT_K == 30
        assert DEFAULT_DELTA == 0.1
