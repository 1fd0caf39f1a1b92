"""Tests for repro.pipeline — the stage runner, shared stages and registry."""

import tracemalloc

import numpy as np
import pytest

from repro.core.linker import CompactHammingLinker, StreamingLinker
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.pipeline import (
    BlockStage,
    CalibrateStage,
    CandidateStage,
    ClassifyStage,
    EmbedStage,
    LinkagePipeline,
    PipelineContext,
    PipelineStage,
    Stage,
    VerifyStage,
    available_linkers,
    create_linker,
    get_linker,
    linker_names,
)
from repro.pipeline.exhaustive import ExhaustiveLinker
from repro.baselines.minhash import MinHashLinker


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 120, scheme_pl(), seed=11)


class _Recorder(PipelineStage):
    """Test stage: records its invocation and emits a fixed match set."""

    kind = "verify"
    timing = "match"

    def __init__(self, log, label):
        self.log = log
        self.label = label

    def run(self, ctx: PipelineContext) -> None:
        self.log.append(self.label)
        ctx.out_a = np.asarray([0], dtype=np.int64)
        ctx.out_b = np.asarray([1], dtype=np.int64)
        ctx.n_candidates = 1


class TestRunner:
    def test_requires_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            LinkagePipeline([])

    def test_stages_run_in_order(self):
        log = []
        pipeline = LinkagePipeline([_Recorder(log, "first"), _Recorder(log, "second")])
        result = pipeline.run([("a",)], [("a",), ("b",)])
        assert log == ["first", "second"]
        assert result.matches == {(0, 1)}
        assert result.comparison_space == 2

    def test_timings_accumulate_by_key(self):
        log = []
        pipeline = LinkagePipeline([_Recorder(log, "x"), _Recorder(log, "y")])
        result = pipeline.run([("a",)], [("b",)])
        # Both stages share the 'match' timing key -> one accumulated entry.
        assert set(result.timings) == {"match"}

    def test_accepts_raw_sequences_and_datasets(self, problem):
        raw_rows = problem.dataset_a.value_rows()
        log = []
        pipeline = LinkagePipeline([_Recorder(log, "z")])
        via_dataset = pipeline.run(problem.dataset_a, problem.dataset_a)
        via_rows = pipeline.run(raw_rows, raw_rows)
        assert via_dataset.comparison_space == via_rows.comparison_space

    def test_empty_output_defaults(self):
        class _Noop(PipelineStage):
            def run(self, ctx):
                pass

        result = LinkagePipeline([_Noop()]).run([("a",)], [("b",)])
        assert result.n_matches == 0
        assert result.matches == set()


class TestStageKinds:
    def test_stage_protocol_runtime_checkable(self):
        log = []
        assert isinstance(_Recorder(log, "s"), Stage)

    def test_kind_and_timing_mapping(self):
        assert CalibrateStage.kind == "calibrate" and CalibrateStage.timing == "calibrate"
        assert EmbedStage.kind == "embed" and EmbedStage.timing == "embed"
        assert BlockStage.kind == "block" and BlockStage.timing == "index"
        assert CandidateStage.kind == "candidates" and CandidateStage.timing == "match"
        assert VerifyStage.kind == "verify" and VerifyStage.timing == "match"
        assert ClassifyStage.kind == "classify" and ClassifyStage.timing == "match"

    def test_name_defaults_to_class_name(self):
        assert _Recorder([], "s").name == "_Recorder"

    def test_base_run_is_abstract(self):
        with pytest.raises(NotImplementedError):
            PipelineStage().run(None)


class TestStreamingLink:
    def test_link_matches_batch_linker(self, problem):
        batch = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        encoder = batch.calibrate(problem.dataset_a, problem.dataset_b)
        batch_result = batch.link(problem.dataset_a, problem.dataset_b)

        streaming = StreamingLinker(encoder, threshold=4, k=30, seed=3)
        result = streaming.link(problem.dataset_a, problem.dataset_b)
        assert result.matches == batch_result.matches
        assert set(result.timings) == {"index", "match"}
        assert len(streaming) == len(problem.dataset_a)


class TestExhaustiveLinker:
    def test_matches_brute_force(self, problem):
        from repro.core.encoder import RecordEncoder
        from repro.core.qgram import QGramScheme
        from repro.text.alphabet import TEXT_ALPHABET

        full = ExhaustiveLinker(threshold=4, seed=3).link(
            problem.dataset_a, problem.dataset_b
        )
        assert full.n_candidates == full.comparison_space

        # Same embedding, verified pair by pair without the pipeline.
        rows_a = problem.dataset_a.value_rows()
        rows_b = problem.dataset_b.value_rows()
        encoder = RecordEncoder.calibrated(
            rows_a[:1000], scheme=QGramScheme(alphabet=TEXT_ALPHABET), seed=3
        )
        matrix_a = encoder.encode_dataset(rows_a)
        matrix_b = encoder.encode_dataset(rows_b)
        expected = set()
        for i in range(len(rows_a)):
            idx = np.full(len(rows_b), i, dtype=np.int64)
            dist = matrix_a.hamming_rows(idx, matrix_b, np.arange(len(rows_b)))
            expected |= {(i, int(j)) for j in np.flatnonzero(dist <= 4)}
        assert full.matches == expected

    def test_deterministic(self, problem):
        results = [
            ExhaustiveLinker(threshold=4, seed=3).link(problem.dataset_a, problem.dataset_b)
            for __ in range(2)
        ]
        assert results[0].matches == results[1].matches
        assert np.array_equal(results[0].rows_a, results[1].rows_a)
        assert np.array_equal(results[0].rows_b, results[1].rows_b)
        assert results[0].counters["pairs_verified"] == results[0].comparison_space

    def test_memory_stays_flat(self):
        """The all-pairs space is verified a block at a time: 1 000 a side is a
        million pairs, which a candidate list would hold at 16 B each (the
        list this replaced peaked at 23 MB traced; the blocks at 2 MB)."""
        big = build_linkage_problem(NCVRGenerator(), 1000, scheme_pl(), seed=11)
        tracemalloc.start()
        try:
            result = ExhaustiveLinker(threshold=4, seed=3).link(big.dataset_a, big.dataset_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_candidates == 1000 * 1000
        assert result.n_matches > 0
        assert peak < 8 << 20


class TestMinHashLinker:
    def test_deterministic(self, problem):
        first = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        second = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        assert first.matches == second.matches
        assert first.n_candidates == second.n_candidates

    def test_exact_minhash_dominates_harra(self, problem):
        from repro.baselines import HarraLinker

        ideal = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        harra = HarraLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        # The exact, non-pruning variant finds at least as many matches.
        assert ideal.n_matches >= harra.n_matches

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MinHashLinker(threshold=1.5)


class TestRegistry:
    def test_all_linkers_registered(self):
        assert linker_names() == (
            "cbv-record",
            "cbv-rule",
            "streaming",
            "exhaustive",
            "bfh",
            "canopy",
            "harra",
            "minhash",
            "smeb",
            "sorted-neighborhood",
        )

    def test_specs_have_summaries(self):
        for spec in available_linkers():
            assert spec.summary
            assert callable(spec.factory)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="cbv-record"):
            get_linker("no-such-linker")

    def test_create_linker(self, problem):
        linker = create_linker("exhaustive", threshold=4, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        assert result.n_candidates == result.comparison_space

    def test_every_factory_builds_a_pipeline_linker(self):
        from repro.rules.parser import parse_rule

        kwargs = {
            "cbv-record": {"threshold": 4},
            "cbv-rule": {"rule": parse_rule("(f1<=4)"), "k": {"f1": 5}},
            "streaming": None,  # needs a calibrated encoder; covered above
            "exhaustive": {"threshold": 4},
            "bfh": {"attribute_thresholds": {"f1": 45}, "n_attributes": 2},
            "canopy": {"threshold": 4},
            "harra": {},
            "minhash": {},
            "smeb": {"attribute_thresholds": {"f1": 4.5}, "n_attributes": 2},
            "sorted-neighborhood": {"threshold": 4},
        }
        for spec in available_linkers():
            init = kwargs[spec.name]
            if init is None:
                continue
            linker = spec.factory(**init)
            assert hasattr(linker, "link")


class TestCounters:
    def test_cbv_counters_present(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        for key in (
            "intern_values",
            "intern_unique",
            "intern_hit_rate",
            "pairs_generated",
            "pairs_unique",
            "pairs_verified",
        ):
            assert key in result.counters

    def test_summary_keys(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        summary = result.summary()
        assert summary["n_matches"] == result.n_matches
        assert summary["n_candidates"] == result.n_candidates
        assert summary["comparison_space"] == result.comparison_space
        assert 0.0 <= summary["reduction_ratio"] <= 1.0
        for key in result.timings:
            assert f"time_{key}_s" in summary
