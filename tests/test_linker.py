"""Tests for repro.core.linker (the cBV-HB pipeline) and the streaming setting."""

import numpy as np
import pytest

from repro.core.config import CalibrationConfig
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.generators import EXPERIMENT_SCHEME
from repro.evaluation.metrics import evaluate_linkage
from repro.rules.parser import parse_rule
from tests.golden_linkers import incremental_engine, query_each

NCVR_NAMES = ["FirstName", "LastName", "Address", "Town"]
NCVR_K = {"FirstName": 5, "LastName": 5, "Address": 10}
PH_RULE = parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)")


class TestConstruction:
    def test_exactly_one_mode(self):
        with pytest.raises(ValueError):
            CompactHammingLinker()
        with pytest.raises(ValueError):
            CompactHammingLinker(threshold=4, rule=PH_RULE, k=NCVR_K)

    def test_rule_mode_needs_mapping_k(self):
        with pytest.raises(ValueError, match="per-attribute"):
            CompactHammingLinker(rule=PH_RULE, k=30)

    def test_record_mode_needs_scalar_k(self):
        with pytest.raises(ValueError, match="single integer"):
            CompactHammingLinker(threshold=4, k={"f1": 5})


class TestRecordLevelPipeline:
    def test_high_completeness_on_pl(self, small_pl_problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=1)
        result = linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        quality = evaluate_linkage(
            result.matches,
            small_pl_problem.true_matches,
            result.n_candidates,
            small_pl_problem.comparison_space,
        )
        assert quality.pairs_completeness >= 0.9
        assert quality.reduction_ratio >= 0.99

    def test_matches_within_threshold(self, small_pl_problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=20, seed=2)
        result = linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        assert (result.record_distances <= 4).all()

    def test_calibration_near_paper_width(self, small_pl_problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=20, seed=3)
        linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        # Table 3's NCVR record width is 120 bits; synthetic data lands close.
        assert 100 <= linker.encoder.total_bits <= 140

    def test_timings_have_all_stages(self, small_pl_problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=20, seed=4)
        result = linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        assert {"calibrate", "embed", "index", "match"} == set(result.timings)
        assert result.total_time == pytest.approx(sum(result.timings.values()))

    def test_reuses_calibrated_encoder(self, small_pl_problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=20, seed=5)
        linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        first = linker.encoder
        linker.link(small_pl_problem.dataset_a, small_pl_problem.dataset_b)
        assert linker.encoder is first

    def test_plain_value_rows_accepted(self):
        rows = [("JONES", "SMITH"), ("MARIA", "GARCIA")]
        linker = CompactHammingLinker.record_level(
            threshold=4, k=10, scheme=EXPERIMENT_SCHEME, seed=6
        )
        result = linker.link(rows, rows)
        assert (0, 0) in result.matches
        assert (1, 1) in result.matches


class TestRuleAwarePipeline:
    def test_rule_aware_on_ph(self, small_ph_problem):
        linker = CompactHammingLinker.rule_aware(
            PH_RULE, k=NCVR_K, attribute_names=NCVR_NAMES, seed=7
        )
        result = linker.link(small_ph_problem.dataset_a, small_ph_problem.dataset_b)
        quality = evaluate_linkage(
            result.matches,
            small_ph_problem.true_matches,
            result.n_candidates,
            small_ph_problem.comparison_space,
        )
        assert quality.pairs_completeness >= 0.9

    def test_accepted_pairs_satisfy_rule(self, small_ph_problem):
        linker = CompactHammingLinker.rule_aware(
            PH_RULE, k=NCVR_K, attribute_names=NCVR_NAMES, seed=8
        )
        result = linker.link(small_ph_problem.dataset_a, small_ph_problem.dataset_b)
        assert (result.attribute_distances["FirstName"] <= 4).all()
        assert (result.attribute_distances["LastName"] <= 4).all()
        assert (result.attribute_distances["Address"] <= 8).all()


class TestMultiParty:
    def test_three_way_linkage(self):
        generator = NCVRGenerator()
        datasets = [generator.generate(80, seed=s, id_prefix=f"D{s}") for s in (1, 2, 3)]
        # Make dataset 3 share records with dataset 1.
        datasets[2] = datasets[0]
        linker = CompactHammingLinker.record_level(threshold=4, k=20, seed=9)
        results = linker.link_multiple(datasets)
        assert set(results) == {(0, 1), (0, 2), (1, 2)}
        identical = results[(0, 2)]
        found = identical.matches
        assert all((i, i) in found for i in range(80))

    def test_needs_two_datasets(self):
        linker = CompactHammingLinker.record_level(threshold=4, k=20)
        with pytest.raises(ValueError):
            linker.link_multiple([NCVRGenerator().generate(10, seed=0)])


class TestStreamingLinker:
    """Section 1's real-time linker: an in-memory engine that ingests records
    as they arrive and matches each incoming one at once."""

    @pytest.fixture
    def encoder(self):
        sample = NCVRGenerator().generate(200, seed=10).value_rows()
        return RecordEncoder.calibrated(sample, scheme=EXPERIMENT_SCHEME, seed=10)

    def test_insert_then_query(self, encoder):
        streaming = incremental_engine(encoder, [], threshold=4, k=20, seed=11)
        [rid] = streaming.ingest([("JONES", "SMITH", "12 MAIN ST", "BOONE")])
        [hits] = query_each(streaming, [("JONAS", "SMITH", "12 MAIN ST", "BOONE")])
        assert any(h[0] == rid for h in hits)

    def test_query_respects_threshold(self, encoder):
        streaming = incremental_engine(
            encoder, [("JONES", "SMITH", "12 MAIN ST", "BOONE")], threshold=4, k=20, seed=12
        )
        hits = query_each(streaming, [("XAVIER", "QUIRK", "99 ZED BLVD", "ERewhon".upper())])
        assert hits == [[]]

    def test_incremental_growth(self, encoder, small_pl_problem):
        streaming = incremental_engine(
            encoder, small_pl_problem.dataset_a.value_rows(), threshold=4, k=25, seed=13
        )
        assert streaming.n_indexed == len(small_pl_problem.dataset_a)
        found = 0
        truth = small_pl_problem.true_matches
        answers = query_each(streaming, small_pl_problem.dataset_b.value_rows())
        for row_b, hits in enumerate(answers):
            for rid, __ in hits:
                if (rid, row_b) in truth:
                    found += 1
        assert found / len(truth) >= 0.9
